package resil

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rotWrite, rotWriteBytes and rotXor are the lane loops in their defining
// form: every element goes to the lane in front, and the lanes rotate
// one place.
func (h *lanes) rotWrite(w []float64) {
	for _, v := range w {
		h[0], h[1], h[2], h[3] = h[1], h[2], h[3], (h[0]^math.Float64bits(v))*sumPrime
	}
}

func (h *lanes) rotWriteBytes(b []byte) {
	for _, v := range b {
		h[0], h[1], h[2], h[3] = h[1], h[2], h[3], (h[0]^uint64(v))*sumPrime
	}
}

func (h *lanes) rotXor(dst, a, b []float64) {
	for i := range dst {
		x := math.Float64bits(a[i]) ^ math.Float64bits(b[i])
		dst[i] = math.Float64frombits(x)
		h[0], h[1], h[2], h[3] = h[1], h[2], h[3], (h[0]^x)*sumPrime
	}
}

// TestLanesMatchRotatingReference: the unrolled lane loops leave the same
// lanes, hence the same Sum, as the rotating definition, at every length
// across the four-lane tail and on a long run, cut into two write calls
// at every point (and into many at random points); xor writes the same
// words too.
func TestLanesMatchRotatingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1003}
	for _, n := range lengths {
		pops, other := make([]float64, n), make([]float64, n)
		flags := make([]byte, n)
		for i := range pops {
			pops[i], other[i] = rng.NormFloat64(), rng.NormFloat64()
			flags[i] = byte(rng.Intn(256))
		}
		want := newDigest()
		want.pops.rotWrite(pops)
		want.flags.rotWriteBytes(flags)
		wantSum := want.sum(n, n)
		if got := Checksum(pops, flags); got != wantSum {
			t.Fatalf("n=%d: Checksum %x, rotating reference %x", n, got, wantSum)
		}
		wantXor := make([]float64, n)
		ref := newDigest()
		ref.pops.rotXor(wantXor, pops, other)

		check := func(cuts []int) {
			t.Helper()
			d, x := newDigest(), newDigest()
			gotXor := make([]float64, n)
			lo := 0
			for _, hi := range append(cuts, n) {
				d.pops.write(pops[lo:hi])
				d.flags.writeBytes(flags[lo:hi])
				x.pops.xor(gotXor[lo:hi], pops[lo:hi], other[lo:hi])
				lo = hi
			}
			if d != want || d.sum(n, n) != wantSum {
				t.Fatalf("n=%d cut at %v: lanes %x, rotating reference %x", n, cuts, d, want)
			}
			if x.pops != ref.pops {
				t.Fatalf("n=%d cut at %v: xor lanes %x, rotating reference %x", n, cuts, x.pops, ref.pops)
			}
			for i := range gotXor {
				if math.Float64bits(gotXor[i]) != math.Float64bits(wantXor[i]) {
					t.Fatalf("n=%d cut at %v: xor word %d is %x, want %x", n, cuts, i, math.Float64bits(gotXor[i]), math.Float64bits(wantXor[i]))
				}
			}
		}
		for cut := 0; cut <= n; cut++ {
			check([]int{cut})
		}
		for r := 0; r < 50; r++ {
			cuts := make([]int, 1+rng.Intn(8))
			for i := range cuts {
				cuts[i] = rng.Intn(n + 1)
			}
			slices.Sort(cuts)
			check(cuts)
		}
	}
}
