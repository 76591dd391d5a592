package resil

import "math"

// Payload checksum. The populations and the flags are each folded into
// four multiply-xor lanes, element k of a stream going to lane k mod 4,
// and the eight lanes plus both lengths are chained into the 64-bit Sum.
//
// Detection argument: one lane step h' = (h ^ v) * sumPrime is a
// bijection of h for fixed v and of v for fixed h (xor with a constant
// and multiplication by an odd constant are both invertible mod 2^64),
// and so is every step of the final chain. Flipping any single bit of
// Pops or Flags changes one v, hence that lane's value after the step,
// hence — every later step being a bijection of the lane — that lane's
// final value, hence the Sum: every single-bit corruption is detected,
// provably, as is any truncation or extension (the lengths are folded
// in). The lanes are independent, so their multiplies pipeline: one
// multiply per word off the critical path, where FNV-1a's byte folding
// cost eight dependent multiplies per word.
const sumPrime = 0x9e3779b97f4a7c15

// lanes is the running state of one stream. The lanes rotate one place
// per element, so the state after n elements is the same however the
// stream was cut into write calls: rows can be hashed as they are
// gathered.
type lanes [4]uint64

// digest is the checksum state of one payload.
type digest struct{ pops, flags lanes }

func newDigest() digest {
	seed := lanes{0xcbf29ce484222325, 0x84222325cbf29ce4, 0x9ce484222325cbf2, 0x2325cbf29ce48422}
	return digest{seed, seed}
}

// write folds a run of populations into the lanes.
//
//lbm:hot traffic budget=8
func (h *lanes) write(w []float64) {
	l0, l1, l2, l3 := h[0], h[1], h[2], h[3]
	for _, v := range w {
		l0, l1, l2, l3 = l1, l2, l3, (l0^math.Float64bits(v))*sumPrime
	}
	*h = lanes{l0, l1, l2, l3}
}

// xor sets dst = a ⊕ b bitwise (all three the same length; dst may be
// a) and folds the result into the lanes in the same pass.
//
//lbm:hot traffic budget=24
func (h *lanes) xor(dst, a, b []float64) {
	l0, l1, l2, l3 := h[0], h[1], h[2], h[3]
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		x := math.Float64bits(a[i]) ^ math.Float64bits(b[i])
		dst[i] = math.Float64frombits(x)
		l0, l1, l2, l3 = l1, l2, l3, (l0^x)*sumPrime
	}
	*h = lanes{l0, l1, l2, l3}
}

// writeBytes folds a run of flags into the lanes.
//
//lbm:hot traffic budget=1
func (h *lanes) writeBytes(b []byte) {
	l0, l1, l2, l3 := h[0], h[1], h[2], h[3]
	for _, v := range b {
		l0, l1, l2, l3 = l1, l2, l3, (l0^uint64(v))*sumPrime
	}
	*h = lanes{l0, l1, l2, l3}
}

// sum chains the lanes and the payload lengths into the checksum.
func (d *digest) sum(npops, nflags int) uint64 {
	h := uint64(sumPrime)
	for _, v := range [...]uint64{
		d.pops[0], d.pops[1], d.pops[2], d.pops[3], uint64(npops),
		d.flags[0], d.flags[1], d.flags[2], d.flags[3], uint64(nflags)} {
		h = (h ^ v) * sumPrime
	}
	return h
}

// Checksum computes the checksum of a payload at rest: a snapshot's, or
// a packed halo face's (psolve stamps it into the face's trailer).
func Checksum(pops []float64, flags []byte) uint64 {
	d := newDigest()
	d.pops.write(pops)
	d.flags.writeBytes(flags)
	return d.sum(len(pops), len(flags))
}
