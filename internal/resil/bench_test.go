package resil

import (
	"testing"

	"sunwaylb/internal/core"
	"sunwaylb/internal/decomp"
	"sunwaylb/internal/lattice"
)

// The primitives on one rank block of the bench/ grid (24×192×96, 67 MB
// of payload): go test -run '^$' -bench . -cpu 1 ./internal/resil
func benchBlock(b *testing.B) (*core.Lattice, decomp.Block) {
	l, err := core.NewLattice(&lattice.D3Q19, 24, 192, 96, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	l.InitEquilibrium(1, 0.03, -0.01, 0.02)
	return l, decomp.Block{NX: 24, NY: 192, NZ: 96}
}

func BenchmarkCapture(b *testing.B) {
	l, blk := benchBlock(b)
	var s Snapshot
	Capture(&s, l, blk, 0)
	b.SetBytes(s.PayloadBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Capture(&s, l, blk, 0)
	}
}

func BenchmarkRestore(b *testing.B) {
	l, blk := benchBlock(b)
	var s Snapshot
	Capture(&s, l, blk, 0)
	b.SetBytes(s.PayloadBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RestoreInto(l, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParityPair(b *testing.B) {
	l, blk := benchBlock(b)
	var own, other, p Snapshot
	Capture(&own, l, blk, 0)
	Capture(&other, l, blk, 1)
	b.SetBytes(own.PayloadBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParityReset(&p, 0, own.Step, len(own.Pops), len(own.Flags))
		ParityAdd(&p, &own, &other)
	}
}

// BenchmarkChecksum hashes the payload of a 16×32×32 block, the serve-jobs
// block size, in cache.
func BenchmarkChecksum(b *testing.B) {
	l, err := core.NewLattice(&lattice.D3Q19, 16, 32, 32, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	l.InitEquilibrium(1, 0.03, -0.01, 0.02)
	var s Snapshot
	Capture(&s, l, decomp.Block{NX: 16, NY: 32, NZ: 32}, 0)
	b.SetBytes(s.PayloadBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sum = Checksum(s.Pops, s.Flags)
	}
}
