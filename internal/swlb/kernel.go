package swlb

import (
	"sunwaylb/internal/lattice"
	"sunwaylb/internal/sunway"
)

// sharePlan partitions the directions by their y component. In the
// paper's data-sharing scheme (Fig. 5(4)), each CPE owns one y row per
// pass and DMA-loads, besides its own cy=0 runs, the runs its y-neighbour
// CPEs will pull from this row; those travel over register communication
// (RMA on SW26010-Pro) instead of being re-loaded from main memory by the
// neighbour. The no-sharing baseline is the tile-plus-halo implementation,
// where each CPE loads its y-halo runs itself — the same values its
// neighbours also load, i.e. redundant main-memory traffic.
type sharePlan struct {
	cy0 []int // directions with cy == 0 (always DMA-loaded locally)
	cyP []int // directions with cy == +1 (their sources lie in row y−1)
	cyM []int // directions with cy == −1 (their sources lie in row y+1)
}

// buildSharePlan returns the plan, or nil if the descriptor has |cy| > 1
// velocities (no standard DnQm does).
func buildSharePlan(d *lattice.Descriptor) *sharePlan {
	p := &sharePlan{}
	for i := 0; i < d.Q; i++ {
		switch d.C[i][1] {
		case 0:
			p.cy0 = append(p.cy0, i)
		case 1:
			p.cyP = append(p.cyP, i)
		case -1:
			p.cyM = append(p.cyM, i)
		default:
			return nil
		}
	}
	return p
}

// cpeKernel builds the CPE-side kernel closure for the current buffers and
// options.
//
// The LDM working set is bounded statically by lbmvet's ldmbudget rule.
// The sizes below are not compile-time constants (they come from the
// lattice descriptor and the block option), so the assumption pins them
// at the paper's design point — D3Q19 with the BZ=70 blocking of §IV-C —
// which is also the largest configuration the engine tunes for. Footprint:
// (2·nq·bz runs/out + 2·nq·bz double-buffer + 2·nq f/feq)·8 B ≈ 42.9 KB,
// within the SW26010's 64 KB CPE scratchpad.
//
//lbm:ldm assume nq=19 bz=70
func (e *Engine) cpeKernel() func(p *sunway.CPE) {
	l := e.Lat
	d := l.Desc
	nq := d.Q
	NY, NZ, N := l.NY, l.NZ, l.N
	src, dst := l.Src(), l.Dst()
	bz := e.Opt.BZ
	if bz > NZ {
		bz = NZ
	}
	clean := e.cleanCols
	plan := buildSharePlan(d)
	ysharing := e.Opt.YSharing && plan != nil
	async := e.Opt.AsyncDMA
	fused := e.Opt.Fused
	eff := e.Opt.ComputeEff
	col := l.Collider()

	return func(p *sunway.CPE) {
		P := p.NumCPEs()
		runs := make([][]float64, nq)
		out := make([][]float64, nq)
		for i := 0; i < nq; i++ {
			runs[i] = p.MustAllocFloat64(bz)
			out[i] = p.MustAllocFloat64(bz)
		}
		if async {
			// Double-buffering reserves a second copy in LDM; the
			// simulator reuses the same slices but the capacity
			// must exist on the real chip.
			p.MustAllocFloat64(2 * nq * bz)
		}
		f := p.MustAllocFloat64(nq)
		// Relax keeps the equilibrium on the host stack; on the chip it
		// is LDM too, so the capacity is reserved like the double buffer.
		p.MustAllocFloat64(nq)
		var pendingPut sunway.DMAHandle

		// loadRun DMAs the shifted z-run of direction q for column
		// (x, y), block [z0, z0+bzE).
		loadRun := func(q, x, y, z0, bzE int) {
			c := d.C[q]
			base := q*N + l.Idx(x-c[0], y-c[1], z0-c[2])
			if async {
				h := p.DMAGetAsync(runs[q][:bzE], src[base:base+bzE])
				p.Wait(h) // loads queue; the final Wait aligns
			} else {
				p.DMAGet(runs[q][:bzE], src[base:base+bzE])
			}
		}

		// collideBlock relaxes the gathered runs into out: each cell of
		// the block goes through the same core.Collider as every host
		// sweep, so results are bit-identical to core.StepFused.
		collideBlock := func(bzE int) {
			for zi := 0; zi < bzE; zi++ {
				for i := range f {
					f[i] = runs[i][zi]
				}
				col.Relax(f, f)
				for i := range f {
					out[i][zi] = f[i]
				}
			}
			p.Compute(float64(bzE)*FlopsPerCell, eff)
		}

		storeOut := func(x, y, z0, bzE int) {
			for i := 0; i < nq; i++ {
				base := i*N + l.Idx(x, y, z0)
				if async {
					pendingPut = p.DMAPutAsync(dst[base:base+bzE], out[i][:bzE])
				} else {
					p.DMAPut(dst[base:base+bzE], out[i][:bzE])
				}
			}
		}

		for g := 0; g*P < len(clean); g++ {
			myIdx := g*P + p.ID
			if myIdx >= len(clean) {
				continue
			}
			col := int(clean[myIdx])
			x, y := col/NY, col%NY
			upOK := ysharing && p.ID+1 < P && myIdx+1 < len(clean) &&
				int(clean[myIdx+1]) == col+1 && y+1 < NY
			downOK := ysharing && p.ID > 0 &&
				int(clean[myIdx-1]) == col-1 && y > 0

			for z0 := 0; z0 < NZ; z0 += bz {
				bzE := bz
				if z0+bzE > NZ {
					bzE = NZ - z0
				}
				if ysharing {
					// Own cy=0 runs.
					for _, q := range plan.cy0 {
						loadRun(q, x, y, z0, bzE)
					}
					// Load the runs the neighbours pull from
					// this row and ship them over register
					// communication; Send copies at call time,
					// so the buffers can be reused below.
					if upOK {
						for _, q := range plan.cyP {
							loadRun(q, x, y+1, z0, bzE)
							p.Send(p.ID+1, runs[q][:bzE])
						}
					}
					if downOK {
						for _, q := range plan.cyM {
							loadRun(q, x, y-1, z0, bzE)
							p.Send(p.ID-1, runs[q][:bzE])
						}
					}
					// Own cy=+1 runs come from the y−1 CPE,
					// cy=−1 from the y+1 CPE; edges fall back
					// to DMA.
					if downOK {
						for _, q := range plan.cyP {
							copy(runs[q][:bzE], p.Recv(p.ID-1))
						}
					} else {
						for _, q := range plan.cyP {
							loadRun(q, x, y, z0, bzE)
						}
					}
					if upOK {
						for _, q := range plan.cyM {
							copy(runs[q][:bzE], p.Recv(p.ID+1))
						}
					} else {
						for _, q := range plan.cyM {
							loadRun(q, x, y, z0, bzE)
						}
					}
				} else {
					// Tile-plus-halo baseline: the y-halo runs
					// (cy≠0) are also loaded by the neighbour
					// CPEs for their own tiles — redundant
					// traffic that the sharing scheme removes.
					for q := 0; q < nq; q++ {
						loadRun(q, x, y, z0, bzE)
					}
					if plan != nil {
						for _, q := range plan.cyP {
							loadRun(q, x, y, z0, bzE)
						}
						for _, q := range plan.cyM {
							loadRun(q, x, y, z0, bzE)
						}
					}
				}

				if fused {
					collideBlock(bzE)
					storeOut(x, y, z0, bzE)
					continue
				}
				// Unfused: the streamed populations round-trip
				// through main memory before the collision pass
				// (the pre-fusion baseline: 2× the traffic).
				for i := 0; i < nq; i++ {
					base := i*N + l.Idx(x, y, z0)
					p.DMAPut(dst[base:base+bzE], runs[i][:bzE])
				}
				for i := 0; i < nq; i++ {
					base := i*N + l.Idx(x, y, z0)
					p.DMAGet(runs[i][:bzE], dst[base:base+bzE])
				}
				collideBlock(bzE)
				storeOut(x, y, z0, bzE)
			}
		}
		if async {
			p.Wait(pendingPut)
		}
	}
}
