package core

import (
	"math"

	"sunwaylb/internal/lattice"
)

// Macro holds the macroscopic fields of one cell.
type Macro struct {
	Rho        float64
	Ux, Uy, Uz float64
}

// MacroAt computes density and velocity of an interior cell from the
// current buffer.
func (l *Lattice) MacroAt(x, y, z int) Macro {
	d := l.Desc
	idx := l.Idx(x, y, z)
	src := l.F[l.src]
	var rho, jx, jy, jz float64
	for i := 0; i < d.Q; i++ {
		fi := src[l.PopBase(i)+idx]
		rho += fi
		c := d.C[i]
		jx += fi * float64(c[0])
		jy += fi * float64(c[1])
		jz += fi * float64(c[2])
	}
	if rho == 0 {
		return Macro{}
	}
	// With Guo forcing the physical velocity is (j + F/2)/ρ.
	jx += 0.5 * l.Force[0]
	jy += 0.5 * l.Force[1]
	jz += 0.5 * l.Force[2]
	return Macro{Rho: rho, Ux: jx / rho, Uy: jy / rho, Uz: jz / rho}
}

// MacroField holds the macroscopic fields of the whole interior domain in
// z-fastest order (the same ordering as the population storage, without
// halo).
type MacroField struct {
	NX, NY, NZ int
	Rho        []float64
	Ux, Uy, Uz []float64
}

// Idx returns the linear index of (x, y, z) in the macro field arrays.
func (m *MacroField) Idx(x, y, z int) int { return (y*m.NX+x)*m.NZ + z }

// NewMacroField allocates a zeroed nx×ny×nz field.
func NewMacroField(nx, ny, nz int) *MacroField {
	n := 4 * nx * ny * nz
	return MacroFieldOver(Alloc[float64](n, n), nx, ny, nz)
}

// NonFinite counts, in one pass over the field, the cells whose density
// or velocity is NaN or infinite. Solid cells hold zeros, so every cell it
// counts is a fluid cell. A nil field has none.
func (m *MacroField) NonFinite() int {
	if m == nil {
		return 0
	}
	n := 0
	for i, r := range m.Rho {
		// v−v is 0 for every finite v and NaN for NaN and ±Inf.
		if r-r != 0 || m.Ux[i]-m.Ux[i] != 0 || m.Uy[i]-m.Uy[i] != 0 || m.Uz[i]-m.Uz[i] != 0 {
			n++
		}
	}
	return n
}

// NonFinite counts the interior fluid cells whose density or velocity is
// NaN or infinite: MacroField.NonFinite of the field MacroInto writes,
// computed one y-plane at a time, so the whole field is never held.
func (l *Lattice) NonFinite() int {
	m, n := NewMacroField(l.NX, 1, l.NZ), 0
	for y := 0; y < l.NY; y++ {
		l.MacroInto(m, 0, 0, 0, Box{Y0: y, NX: l.NX, NY: 1, NZ: l.NZ})
		n += m.NonFinite()
	}
	return n
}

// MacroFieldOver lays an nx×ny×nz field over d, which holds the four
// channels Rho, Ux, Uy, Uz back to back (a gather payload, say).
func MacroFieldOver(d []float64, nx, ny, nz int) *MacroField {
	n := nx * ny * nz
	return &MacroField{NX: nx, NY: ny, NZ: nz,
		Rho: d[:n:n], Ux: d[n : 2*n : 2*n], Uy: d[2*n : 3*n : 3*n], Uz: d[3*n : 4*n : 4*n]}
}

// Place copies the field b into m at origin (x0, y0, z0), one z-run per
// channel and (x, y).
func (m *MacroField) Place(b *MacroField, x0, y0, z0 int) {
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			mi, bi := m.Idx(x0+x, y0+y, z0), b.Idx(x, y, 0)
			copy(m.Rho[mi:mi+b.NZ], b.Rho[bi:])
			copy(m.Ux[mi:mi+b.NZ], b.Ux[bi:])
			copy(m.Uy[mi:mi+b.NZ], b.Uy[bi:])
			copy(m.Uz[mi:mi+b.NZ], b.Uz[bi:])
		}
	}
}

// ComputeMacro extracts the macroscopic fields of all interior cells.
// Solid cells yield zeros.
func (l *Lattice) ComputeMacro() *MacroField {
	m := NewMacroField(l.NX, l.NY, l.NZ)
	l.MacroInto(m, 0, 0, 0, l.Interior())
	return m
}

// Interior is the box of all interior cells.
func (l *Lattice) Interior() Box { return Box{NX: l.NX, NY: l.NY, NZ: l.NZ} }

// MacroInto writes the macroscopic fields of the interior cells in box b
// into the caller's field m, cell (b.X0+x, b.Y0+y, b.Z0+z) at (x0+x, y0+y,
// z0+z) — a rank's block of a global field, a gather payload laid out by
// MacroFieldOver, or one plane of the lattice. Solid cells yield zeros.
// Each z-row is summed population-outer straight into its four output
// runs, each population in one pass that adds it to the density and to the
// momentum components its velocity has; every cell still adds its
// populations in ascending order, and the terms skipped are exact zeros,
// so for finite populations the values are bitwise those of MacroAt.
//
// D3Q19 lattices take the unrolled row instead (macroD3Q19), which is
// bitwise MacroAt for every input.
//
// Per cell a population's pass reads it once and updates at most four
// accumulators, which stay in L1 for the row; the budget prices the
// dearest pass.
//
//lbm:hot traffic budget=72
func (l *Lattice) MacroInto(m *MacroField, x0, y0, z0 int, b Box) {
	d := l.Desc
	if d == &lattice.D3Q19 {
		l.macroD3Q19(m, x0, y0, z0, b)
		return
	}
	src := l.F[l.src]
	var baseArr [MaxQ]int
	base := baseArr[:d.Q]
	for i := range base {
		base[i] = l.PopBase(i)
	}
	nz := b.NZ
	fx, fy, fz := 0.5*l.Force[0], 0.5*l.Force[1], 0.5*l.Force[2]
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			idx, mi := l.Idx(b.X0+x, b.Y0+y, b.Z0), m.Idx(x0+x, y0+y, z0)
			rho := m.Rho[mi : mi+nz]
			j := [3][]float64{m.Ux[mi : mi+nz], m.Uy[mi : mi+nz], m.Uz[mi : mi+nz]}
			clear(rho)
			clear(j[0])
			clear(j[1])
			clear(j[2])
			for i := 0; i < d.Q; i++ {
				// The components c_i has, as (momentum run, sign) pairs:
				// adding v·(±1) is adding ±v exactly.
				var a [3][]float64
				var sg [3]float64
				n := 0
				for k, c := range d.C[i] {
					if c != 0 {
						a[n], sg[n] = j[k], float64(c)
						n++
					}
				}
				f := src[base[i]+idx : base[i]+idx+nz]
				switch n {
				case 0:
					for z, v := range f {
						rho[z] += v
					}
				case 1:
					a0 := a[0][:len(f)]
					for z, v := range f {
						rho[z] += v
						a0[z] += v * sg[0]
					}
				case 2:
					a0, a1 := a[0][:len(f)], a[1][:len(f)]
					for z, v := range f {
						rho[z] += v
						a0[z] += v * sg[0]
						a1[z] += v * sg[1]
					}
				default:
					a0, a1, a2 := a[0][:len(f)], a[1][:len(f)], a[2][:len(f)]
					for z, v := range f {
						rho[z] += v
						a0[z] += v * sg[0]
						a1[z] += v * sg[1]
						a2[z] += v * sg[2]
					}
				}
			}
			jx, jy, jz := j[0], j[1], j[2]
			for z, f := range l.Flags[idx : idx+nz] {
				switch r := rho[z]; {
				case f != Fluid:
					rho[z], jx[z], jy[z], jz[z] = 0, 0, 0, 0
				case r == 0:
					jx[z], jy[z], jz[z] = 0, 0, 0
				default:
					// With Guo forcing the physical velocity is (j + F/2)/ρ.
					jx[z] = (jx[z] + fx) / r
					jy[z] = (jy[z] + fy) / r
					jz[z] = (jz[z] + fz) / r
				}
			}
		}
	}
}

// macroD3Q19 is MacroInto for D3Q19, one z-row at a time through
// macroRowD3Q19. A row holding a non-finite density (a NaN or infinite
// population, or an overflowing sum) has those cells redone by MacroAt,
// whose zero-velocity terms turn an infinity into NaN.
func (l *Lattice) macroD3Q19(m *MacroField, x0, y0, z0 int, b Box) {
	src := l.F[l.src]
	var base [19]int
	for i := range base {
		base[i] = l.PopBase(i)
	}
	nz := b.NZ
	f := [3]float64{0.5 * l.Force[0], 0.5 * l.Force[1], 0.5 * l.Force[2]}
	var g [19][]float64
	for y := 0; y < b.NY; y++ {
		for x := 0; x < b.NX; x++ {
			idx, mi := l.Idx(b.X0+x, b.Y0+y, b.Z0), m.Idx(x0+x, y0+y, z0)
			for i := range g {
				g[i] = src[base[i]+idx : base[i]+idx+nz]
			}
			rho := m.Rho[mi : mi+nz]
			if !macroRowD3Q19(&g, l.Flags[idx:idx+nz], rho, m.Ux[mi:mi+nz], m.Uy[mi:mi+nz], m.Uz[mi:mi+nz], f) {
				continue
			}
			for z, r := range rho {
				if r-r != 0 {
					a := l.MacroAt(b.X0+x, b.Y0+y, b.Z0+z)
					rho[z], m.Ux[mi+z], m.Uy[mi+z], m.Uz[mi+z] = a.Rho, a.Ux, a.Uy, a.Uz
				}
			}
		}
	}
}

// macroRowD3Q19 writes the density and velocity of one z-row of cells
// from its 19 population runs g, each cell's moments summed in registers
// from +0 in MacroAt's ascending population order; a velocity term of
// MacroAt the row skips is f·0, which for finite f leaves a sum that
// started at +0 bitwise unchanged. Solid cells yield zeros. It reports
// whether a fluid cell's density came out non-finite, for the caller to
// redo.
//
// Per cell: 19 population loads, a flag byte and four stores, 185 B.
//
//lbm:hot traffic budget=185
func macroRowD3Q19(g *[19][]float64, flags []CellType, rho, ux, uy, uz []float64, f [3]float64) (nonFinite bool) {
	n := len(rho)
	flags, ux, uy, uz = flags[:n], ux[:n], uy[:n], uz[:n]
	g0, g1, g2, g3, g4 := g[0][:n], g[1][:n], g[2][:n], g[3][:n], g[4][:n]
	g5, g6, g7, g8, g9 := g[5][:n], g[6][:n], g[7][:n], g[8][:n], g[9][:n]
	g10, g11, g12, g13, g14 := g[10][:n], g[11][:n], g[12][:n], g[13][:n], g[14][:n]
	g15, g16, g17, g18 := g[15][:n], g[16][:n], g[17][:n], g[18][:n]
	for z := 0; z < n; z++ {
		if flags[z] != Fluid {
			rho[z], ux[z], uy[z], uz[z] = 0, 0, 0, 0
			continue
		}
		f0, f1, f2, f3, f4 := g0[z], g1[z], g2[z], g3[z], g4[z]
		f5, f6, f7, f8, f9 := g5[z], g6[z], g7[z], g8[z], g9[z]
		f10, f11, f12, f13, f14 := g10[z], g11[z], g12[z], g13[z], g14[z]
		f15, f16, f17, f18 := g15[z], g16[z], g17[z], g18[z]
		r := 0.0
		r += f0
		r += f1
		r += f2
		r += f3
		r += f4
		r += f5
		r += f6
		r += f7
		r += f8
		r += f9
		r += f10
		r += f11
		r += f12
		r += f13
		r += f14
		r += f15
		r += f16
		r += f17
		r += f18
		jx := 0.0
		jx += f1
		jx -= f2
		jx += f7
		jx -= f8
		jx += f9
		jx -= f10
		jx += f11
		jx -= f12
		jx += f13
		jx -= f14
		jy := 0.0
		jy += f3
		jy -= f4
		jy += f7
		jy -= f8
		jy -= f9
		jy += f10
		jy += f15
		jy -= f16
		jy += f17
		jy -= f18
		jz := 0.0
		jz += f5
		jz -= f6
		jz += f11
		jz -= f12
		jz -= f13
		jz += f14
		jz += f15
		jz -= f16
		jz -= f17
		jz += f18
		switch {
		case r == 0:
			rho[z], ux[z], uy[z], uz[z] = 0, 0, 0, 0
		case r-r != 0:
			rho[z] = r
			nonFinite = true
		default:
			// With Guo forcing the physical velocity is (j + F/2)/ρ.
			rho[z], ux[z], uy[z], uz[z] = r, (jx+f[0])/r, (jy+f[1])/r, (jz+f[2])/r
		}
	}
	return nonFinite
}

// TotalMass sums the density over all interior fluid cells. The LBGK
// collision conserves it exactly (up to FP rounding); with pure bounce-back
// walls and periodic boundaries it is conserved across steps too.
func (l *Lattice) TotalMass() float64 {
	d := l.Desc
	src := l.F[l.src]
	var baseArr [MaxQ]int
	base := baseArr[:d.Q]
	for i := range base {
		base[i] = l.PopBase(i)
	}
	total := 0.0
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				idx := l.Idx(x, y, z)
				if l.Flags[idx] != Fluid {
					continue
				}
				for i := 0; i < d.Q; i++ {
					total += src[base[i]+idx]
				}
			}
		}
	}
	return total
}

// TotalMomentum sums the momentum over all interior fluid cells.
func (l *Lattice) TotalMomentum() (jx, jy, jz float64) {
	d := l.Desc
	src := l.F[l.src]
	var baseArr [MaxQ]int
	base := baseArr[:d.Q]
	for i := range base {
		base[i] = l.PopBase(i)
	}
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				idx := l.Idx(x, y, z)
				if l.Flags[idx] != Fluid {
					continue
				}
				for i := 0; i < d.Q; i++ {
					fi := src[base[i]+idx]
					c := d.C[i]
					jx += fi * float64(c[0])
					jy += fi * float64(c[1])
					jz += fi * float64(c[2])
				}
			}
		}
	}
	return
}

// MaxVelocity returns the maximum velocity magnitude over interior fluid
// cells; useful as a stability diagnostic (must stay well below c_s≈0.577).
func (l *Lattice) MaxVelocity() float64 {
	maxSq := 0.0
	for y := 0; y < l.NY; y++ {
		for x := 0; x < l.NX; x++ {
			for z := 0; z < l.NZ; z++ {
				if l.Flags[l.Idx(x, y, z)] != Fluid {
					continue
				}
				m := l.MacroAt(x, y, z)
				sq := m.Ux*m.Ux + m.Uy*m.Uy + m.Uz*m.Uz
				if sq > maxSq {
					maxSq = sq
				}
			}
		}
	}
	return math.Sqrt(maxSq)
}
