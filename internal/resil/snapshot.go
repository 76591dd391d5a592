package resil

import (
	"errors"
	"fmt"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/mpi"
)

// Snapshot is one rank's serialised subdomain state at a step boundary:
// the interior populations and cell flags of the rank's block, plus
// enough geometry to place the block back into the global lattice. The
// same struct doubles as a parity record (XOR of a group's snapshots),
// in which case the geometry fields describe no block and only the
// padded payload matters.
type Snapshot struct {
	// Rank is the owner (for L1), the original owner of a buddy copy
	// (for L2), or the computing member (for parity).
	Rank int
	// Step is the completed-step count the state belongs to; −1 marks a
	// store record that is empty or still being filled.
	Step int
	// X0, Y0, Z0, NX, NY, NZ locate the block in the global domain.
	X0, Y0, Z0 int
	NX, NY, NZ int
	// Q is the descriptor population count.
	Q int
	// Pops holds the interior populations as one population-major block
	// per z-row, rows in (y, x) order: population i of cell (x, y, z) is
	// Pops[((y*NX+x)*Q+i)*NZ+z] — core.GatherLine's layout, the one
	// PackFace and swio use, so every row moves as Q memmoves. The
	// payload lives in memory only and is the logical state: identical
	// at both AA storage phases and on the double buffer.
	Pops []float64
	// Flags holds the interior cell flags, z innermost, rows in the
	// same order.
	Flags []byte
	// Sum is the checksum of Pops and Flags (see digest), so a corrupted
	// buddy push or parity replica is detected at use time.
	Sum uint64
	// members is, on a parity record, the XOR of the checksums its
	// members carried: a reconstruction must hash to what is left after
	// XORing out the survivors', or a member was corrupted in flight.
	members uint64
	// folds lists, on a parity record, the Rank of every member folded
	// in: the members a reconstruction must XOR back out.
	folds []int
}

// PayloadBytes returns the in-memory size of the snapshot payload.
func (s *Snapshot) PayloadBytes() int64 {
	return int64(8*len(s.Pops) + len(s.Flags))
}

// Verify reports whether the payload still matches the checksum.
func (s *Snapshot) Verify() bool { return Checksum(s.Pops, s.Flags) == s.Sum }

// ensure sizes the payload for n populations and m flags, reusing the
// buffers when they are large enough. Contents are not preserved; fresh
// memory is faulted in (core.Prefault), as whoever asked for it is about
// to write all of it.
func (s *Snapshot) ensure(n, m int) {
	if cap(s.Pops) < n {
		s.Pops = make([]float64, n, n+packTrailer)
		core.Prefault(s.Pops)
	}
	s.Pops = s.Pops[:n]
	if cap(s.Flags) < m {
		s.Flags = make([]byte, m)
		core.Prefault(s.Flags)
	}
	s.Flags = s.Flags[:m]
}

// header makes s's header — every field but the payload — a copy of
// src's, keeping s's buffers.
func (s *Snapshot) header(src *Snapshot) {
	pops, flags, folds := s.Pops, s.Flags, s.folds
	*s = *src
	s.Pops, s.Flags, s.folds = pops, flags, append(folds[:0], src.folds...)
}

// CopyFrom makes s a deep copy of src, reusing s's buffers.
func (s *Snapshot) CopyFrom(src *Snapshot) {
	s.header(src)
	s.ensure(len(src.Pops), len(src.Flags))
	copy(s.Pops, src.Pops)
	copy(s.Flags, src.Flags)
}

// Capture records the lattice's interior block state into the snapshot,
// reusing the snapshot's buffers (steady-state allocation-free; the
// first capture sizes them). The lattice holds the rank's local block
// (interior NX×NY×NZ); b locates that block globally.
func Capture(s *Snapshot, lat *core.Lattice, b decomp.Block, rank int) {
	captureBox(s, lat, b, rank, 0, 0, 0, nil)
}

// CaptureAt is Capture for a lattice that holds more than the block:
// b's own origin locates the block inside lat's interior (slicing a
// global checkpoint back into per-patch snapshots).
func CaptureAt(s *Snapshot, lat *core.Lattice, b decomp.Block, rank int) {
	captureBox(s, lat, b, rank, b.X0, b.Y0, b.Z0, nil)
}

// captureBox gathers the b-sized box at interior origin (ox, oy, oz) of
// lat, one z-row at a time, hashing each row while it is still in cache
// and copying it, still in cache, into every copy a wave makes of the
// record (see copyOut). The headers are stamped last: Step and Sum — and
// a copy's header or message trailer, which carry them — describe a
// complete payload or nothing.
//
// Per cell the loop itself moves the flag byte in and out and, per copy,
// the cell's populations and flag once more out; the Q population moves
// of the gather are priced in core's gatherPop (16 B each), the hash in
// lanes.write.
//
//lbm:hot traffic budget=320 assume q=19
func captureBox(s *Snapshot, lat *core.Lattice, b decomp.Block, rank, ox, oy, oz int, copies []copyOut) {
	q, nz := lat.Desc.Q, b.NZ
	s.Rank = rank
	s.X0, s.Y0, s.Z0 = b.X0, b.Y0, b.Z0
	s.NX, s.NY, s.NZ = b.NX, b.NY, b.NZ
	s.Q = q
	s.ensure(b.NX*b.NY*nz*q, b.NX*b.NY*nz)
	d := newDigest()
	for row := 0; row < b.NX*b.NY; row++ {
		ln := lat.ZLine(ox+row%b.NX+1, oy+row/b.NX+1)
		pops := s.Pops[row*q*nz : (row+1)*q*nz]
		lat.GatherLine(ln, oz+1, oz+1+nz, pops, nz)
		d.pops.write(pops)
		flags := s.Flags[row*nz : (row+1)*nz]
		for z := range flags {
			flags[z] = byte(lat.Flags[ln.Cell(oz+1+z)])
		}
		d.flags.writeBytes(flags)
		for _, c := range copies {
			copy(c.pops[row*q*nz:(row+1)*q*nz], pops)
			copy(c.flags[row*nz:(row+1)*nz], flags)
		}
	}
	s.Step, s.Sum = lat.Step(), d.sum(len(s.Pops), len(s.Flags))
	for _, c := range copies {
		if c.rec != nil {
			c.rec.header(s)
		} else {
			s.trailer(c.pops[len(s.Pops) : len(s.Pops)+packTrailer])
		}
	}
}

// ErrPhaseMismatch is returned by RestoreInto when a snapshot's step
// parity disagrees with the target lattice's AA storage phase. An
// AA-pattern lattice stores populations in one of two layouts selected by
// the parity of its step counter; writing an odd-parity snapshot into an
// even-phase lattice (or vice versa) would scatter the payload into the
// wrong slots. Callers must SetStep to the snapshot's step (or one with
// the same parity) before restoring.
var ErrPhaseMismatch = errors.New("resil: snapshot step parity does not match lattice AA phase")

// RestoreInto writes a snapshot's interior state back into a lattice
// whose interior dimensions match the snapshot block. It validates the
// geometry and, for AA lattices, the storage phase — the lattice's step
// counter must already carry the snapshot's parity (SetStep first, then
// restore). The step counter itself is NOT modified: restore placement
// is the caller's contract, phase correctness is this function's.
func RestoreInto(lat *core.Lattice, s *Snapshot) error {
	if s.NX != lat.NX || s.NY != lat.NY || s.NZ != lat.NZ {
		return fmt.Errorf("resil: snapshot block %dx%dx%d does not fit lattice interior %dx%dx%d",
			s.NX, s.NY, s.NZ, lat.NX, lat.NY, lat.NZ)
	}
	return installBox(lat, s, 0, 0, 0)
}

// installBox is the inverse of captureBox: it validates the snapshot
// against the lattice and scatters it row by row at interior origin
// (ox, oy, oz).
//
//lbm:hot traffic budget=320 assume q=19
func installBox(lat *core.Lattice, s *Snapshot, ox, oy, oz int) error {
	if err := s.fits(lat, ox, oy, oz); err != nil {
		return err
	}
	q, nz := s.Q, s.NZ
	for row := 0; row < s.NX*s.NY; row++ {
		ln := lat.ZLine(ox+row%s.NX+1, oy+row/s.NX+1)
		lat.ScatterLine(ln, oz+1, oz+1+nz, s.Pops[row*q*nz:(row+1)*q*nz], nz)
		for z, f := range s.Flags[row*nz : (row+1)*nz] {
			lat.Flags[ln.Cell(oz+1+z)] = core.CellType(f)
		}
	}
	return nil
}

// fits checks everything installBox relies on: descriptor, payload
// size, placement inside the lattice interior and the AA storage phase.
func (s *Snapshot) fits(lat *core.Lattice, ox, oy, oz int) error {
	if s.Q != lat.Desc.Q {
		return fmt.Errorf("resil: snapshot has %d populations, lattice descriptor %s has %d",
			s.Q, lat.Desc.Name, lat.Desc.Q)
	}
	if want := s.NX * s.NY * s.NZ; len(s.Pops) != want*s.Q || len(s.Flags) != want {
		return fmt.Errorf("resil: snapshot payload sized for %d pops / %d flags, got %d / %d",
			want*s.Q, want, len(s.Pops), len(s.Flags))
	}
	if ox < 0 || oy < 0 || oz < 0 || s.NX < 0 || s.NY < 0 || s.NZ < 0 ||
		ox+s.NX > lat.NX || oy+s.NY > lat.NY || oz+s.NZ > lat.NZ {
		return fmt.Errorf("resil: rank %d block %d,%d,%d+%d×%d×%d outside %d×%d×%d",
			s.Rank, ox, oy, oz, s.NX, s.NY, s.NZ, lat.NX, lat.NY, lat.NZ)
	}
	if lat.AA() && lat.Step()&1 != s.Step&1 {
		return fmt.Errorf("%w (snapshot step %d, lattice step %d)",
			ErrPhaseMismatch, s.Step, lat.Step())
	}
	return nil
}

// packTrailer is the number of float64 header words a packed snapshot
// carries after its populations.
const packTrailer = 11

// Pack serialises the snapshot for an mpi transfer into the provided
// buffers and returns the message payload. Pass nil or recycled slices
// for a copy a fault in flight cannot trace back to the snapshot, or the
// snapshot's own Pops and Flags to pack in place when the snapshot is
// given up with the message. The header travels as a trailer, which lets
// the receiver adopt the body in place; the checksum is split across two
// words so it survives the float64 payload type exactly.
func (s *Snapshot) Pack(data []float64, aux []byte) ([]float64, []byte) {
	n := len(s.Pops)
	if cap(data) < n+packTrailer {
		data = make([]float64, n+packTrailer)
	}
	data = data[:n+packTrailer]
	copy(data, s.Pops)
	s.trailer(data[n:])
	return data, append(aux[:0], s.Flags...)
}

// trailer writes the header words a packed snapshot carries after its
// populations into h, packTrailer words long.
func (s *Snapshot) trailer(h []float64) {
	copy(h, []float64{
		float64(s.Rank), float64(s.Step),
		float64(s.X0), float64(s.Y0), float64(s.Z0),
		float64(s.NX), float64(s.NY), float64(s.NZ),
		float64(s.Q),
		float64(s.Sum >> 32), float64(s.Sum & 0xffffffff)})
}

// Unpack decodes a packed snapshot into s without copying: s adopts
// data and aux as its payload (whatever it held before is dropped), so
// the caller must not reuse the message buffers while s is live.
func (s *Snapshot) Unpack(data []float64, aux []byte) error {
	n := len(data) - packTrailer
	if n < 0 {
		return fmt.Errorf("resil: packed snapshot too short (%d words)", len(data))
	}
	h := data[n:]
	s.Rank, s.Step = int(h[0]), int(h[1])
	s.X0, s.Y0, s.Z0 = int(h[2]), int(h[3]), int(h[4])
	s.NX, s.NY, s.NZ = int(h[5]), int(h[6]), int(h[7])
	s.Q = int(h[8])
	s.Sum = uint64(h[9])<<32 | uint64(h[10])
	s.Pops, s.Flags = data[:n], aux
	return nil
}

// Gather captures every block a worker owns and ships the snapshots to
// root, packed back to back into one message, and returns them there as
// one recovery at the step they share (nil elsewhere) — what Assemble
// turns into the global lattice of an L4 checkpoint. A worker may own any
// number of blocks, including none. Every worker must call it.
func Gather(c *mpi.Comm, root int, owned []Owned) (*Recovery, error) {
	snaps := make([]Snapshot, len(owned))
	n, m := 0, 0
	for i, o := range owned {
		Capture(&snaps[i], o.Lat, o.Block, o.ID)
		n += len(snaps[i].Pops) + packTrailer
		m += len(snaps[i].Flags)
	}
	data, aux := make([]float64, 0, n), make([]byte, 0, m)
	for i := range snaps {
		d, a := snaps[i].Pack(data[len(data):], aux[len(aux):])
		data, aux = data[:len(data)+len(d)], aux[:len(aux)+len(a)]
	}
	msgs := c.Gather(root, mpi.Message{Data: data, Aux: aux})
	if msgs == nil {
		return nil, nil
	}
	rec := &Recovery{Blocks: make(map[int]*Snapshot)}
	for _, msg := range msgs {
		// The trailer of the last snapshot sizes it, so the message
		// decodes back to front.
		for d, a := msg.Data, msg.Aux; len(d) > 0; {
			if len(d) < packTrailer {
				return nil, fmt.Errorf("resil: gathered payload too short (%d words)", len(d))
			}
			h := d[len(d)-packTrailer:]
			cells := int(h[5]) * int(h[6]) * int(h[7])
			words := cells*int(h[8]) + packTrailer
			if cells < 0 || words > len(d) || cells > len(a) {
				return nil, fmt.Errorf("resil: gathered snapshot of %d cells overruns its message", cells)
			}
			s := &Snapshot{}
			if err := s.Unpack(d[len(d)-words:], a[len(a)-cells:]); err != nil {
				return nil, err
			}
			rec.Blocks[s.Rank], rec.Step = s, s.Step
			d, a = d[:len(d)-words], a[:len(a)-cells]
		}
	}
	return rec, nil
}
