package psolve

import (
	"errors"
	"fmt"
	"math"

	"sunwaylb/internal/core"
	"sunwaylb/internal/mpi"
	"sunwaylb/internal/resil"
)

// ErrHaloCorrupt reports a halo face that arrived unusable: its trailer
// checksum does not match the payload, or it is not the face the
// receiver's step expects. The receiving rank aborts with an error
// wrapping it, so a supervised run restarts instead of stepping on a
// silently wrong halo.
var ErrHaloCorrupt = errors.New("psolve: halo face corrupt in flight")

// linkTrailer is the number of float64 words a face message carries after
// its populations: the step stamp, then the checksum of populations, stamp
// and flags split into two exact 32-bit halves.
const linkTrailer = 3

// Link is one neighbour side of a block's halo exchange, the one wire
// path of psolve ranks and patch-world workers: the face this block packs
// for the peer and unpacks the peer's face into, and the tags of the two
// directions. A face carries only the populations that cross it
// (core.Lattice.Crossing: 5 of D3Q19's 19), the only ones the receiver's
// sweep reads from its halo. The link owns two send slots of
// len(Crossing)·FaceCells + trailer words, so posting a face packs
// straight into memory the transport hands over and the receiver unpacks
// straight from the message: a step allocates and clones nothing. Cell flags travel on the link's first message only;
// they do not change after set-up, and halo flags persist in between.
type Link struct {
	face             core.Face
	peer             int
	sendTag, recvTag int
	slots            [2][]float64
	flags            []core.CellType // packed flags of the first message, unpacked flags of a received one
	aux              []byte          // the first message's flags on the wire
	sent             bool            // the first message (the one with flags) has gone out
}

// NewLink builds the side of l at face whose neighbour is rank peer.
func NewLink(l *core.Lattice, face core.Face, peer, sendTag, recvTag int) *Link {
	cells := l.FaceCells(face)
	n := len(l.Crossing(face))*cells + linkTrailer
	return &Link{
		face: face, peer: peer, sendTag: sendTag, recvTag: recvTag,
		slots: [2][]float64{make([]float64, n), make([]float64, n)},
		flags: make([]core.CellType, cells),
		aux:   make([]byte, cells),
	}
}

// Post packs l's face into the slot of the current step's parity, stamps
// the trailer and hands the slot to the transport.
//
// Step s packs into slot s&1, which step s−2 handed over. A link carries
// traffic both ways and collects every step after it posts, so this rank
// packs step s only after collecting the peer's step-(s−1) face, and the
// peer posted that only after collecting — unpacking — step s−2's: the
// slot is free again. The transport delivers a duplicate after the
// original, as a copy, so a stale face a receiver reads late is never a
// slot. A violation would show as a checksum mismatch, never as a
// silently wrong halo.
//
// The populations move in PackFace and the checksum reads each word once
// more (both priced where they run); the loop here converts the flags of
// the first message.
//
//lbm:hot traffic budget=2
func (k *Link) Post(c *mpi.Comm, l *core.Lattice) {
	step := l.Step()
	buf := k.slots[step&1]
	n := len(buf) - linkTrailer
	var aux []byte
	if !k.sent {
		l.PackFace(k.face, buf[:n], k.flags)
		for i, f := range k.flags {
			k.aux[i] = byte(f)
		}
		aux, k.sent = k.aux, true
	} else {
		l.PackFace(k.face, buf[:n], nil)
	}
	buf[n] = float64(step)
	sum := resil.Checksum(buf[:n+1], aux)
	buf[n+1], buf[n+2] = float64(sum>>32), float64(sum&math.MaxUint32)
	c.Send(k.peer, k.sendTag, mpi.Message{Data: buf, Aux: aux})
}

// Collect receives the peer's face for l's current step and unpacks it
// into l's halo at the link's face. A face stamped with an earlier step
// is a duplicate still queued ahead of this step's and is discarded, as
// resil.Store.Recv discards stale waves; a face that fails its checksum,
// or one stamped later than the step (the expected one was lost), aborts
// the rank with an error wrapping ErrHaloCorrupt.
//
// The populations move in UnpackFace and the checksum reads each word
// once more (both priced where they run); the loop here converts the flags
// of a first message.
//
//lbm:hot traffic budget=2
func (k *Link) Collect(c *mpi.Comm, l *core.Lattice) {
	want := l.Step()
	for {
		m := c.Recv(k.peer, k.recvTag)
		step, err := k.check(m, c.Rank(), want)
		if err != nil {
			c.AbortRank(err)
		}
		if step < want {
			continue
		}
		var flags []core.CellType
		if len(m.Aux) > 0 {
			for i, f := range m.Aux {
				k.flags[i] = core.CellType(f)
			}
			flags = k.flags
		}
		l.UnpackFace(k.face, m.Data[:len(m.Data)-linkTrailer], flags)
		return
	}
}

// check validates a received face against its trailer and returns its
// step stamp.
func (k *Link) check(m mpi.Message, rank, want int) (int, error) {
	n := len(k.slots[0]) - linkTrailer
	if len(m.Data) != n+linkTrailer || (len(m.Aux) != 0 && len(m.Aux) != len(k.flags)) {
		return 0, fmt.Errorf("rank %d: %v face from rank %d is %d words + %d flags, want %d + 0 or %d: %w",
			rank, k.face.Opposite(), k.peer, len(m.Data), len(m.Aux), n+linkTrailer, len(k.flags), ErrHaloCorrupt)
	}
	h := m.Data[n:]
	if sum := resil.Checksum(m.Data[:n+1], m.Aux); sum != uint64(h[1])<<32|uint64(h[2]) {
		return 0, fmt.Errorf("rank %d: %v face from rank %d fails its checksum at step %d: %w",
			rank, k.face.Opposite(), k.peer, want, ErrHaloCorrupt)
	}
	step := int(h[0])
	if step > want {
		return 0, fmt.Errorf("rank %d: %v face from rank %d is stamped step %d, expected %d (a face was lost): %w",
			rank, k.face.Opposite(), k.peer, step, want, ErrHaloCorrupt)
	}
	return step, nil
}
