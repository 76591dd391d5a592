//go:build linux

package core

import (
	"runtime"
	"slices"
	"syscall"
	"testing"

	"sunwaylb/internal/alloctest"
	"sunwaylb/internal/lattice"
)

// TestLargeArraysOnHugePages: the first whole 2 MiB page of an 8 MiB
// array, and of the populations of a lattice on the benchmark's
// 48×192×96 grid, sits in a mapping advised onto transparent huge pages
// (VmFlags "hg"). Without THP there is no advice to check. The snapshot
// records, wave transport buffers and gathered payloads that resil and
// psolve take from Alloc are checked in those packages.
func TestLargeArraysOnHugePages(t *testing.T) {
	alloctest.OnHugePages(t, "8 MiB array", Alloc[float64](8<<20/8, 8<<20/8))
	l, err := BuildLattice(&lattice.D3Q19, Box{NX: 48, NY: 192, NZ: 96}, 0.6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	alloctest.OnHugePages(t, "bench-grid populations", l.Src())
}

// TestAllocZeroedAndPopulated: Alloc returns a zeroed slice of the
// length and capacity asked for, also when it holds no whole page or
// nothing at all; and a fresh buffer it populates takes (almost) no page
// fault when it is then written in full, where a fresh buffer written on
// demand takes about one per page. Both buffers are fresh anonymous
// mappings kept off huge pages, so their faults count 4 KiB pages
// whatever the host's transparent huge page mode. A kernel older than
// 5.14 refuses the population, and only the first half is checked.
func TestAllocZeroedAndPopulated(t *testing.T) {
	for _, nc := range [][2]int{{0, 0}, {0, 9}, {1, 1}, {2992, 2993}, {8 << 20 / 8, 9 << 20 / 8}} {
		s := Alloc[float64](nc[0], nc[1])
		if len(s) != nc[0] || cap(s) != nc[1] {
			t.Fatalf("Alloc(%d, %d) has len %d cap %d", nc[0], nc[1], len(s), cap(s))
		}
		for i, v := range s[:cap(s)] {
			if v != 0 {
				t.Fatalf("Alloc(%d, %d)[%d] reads %v, want 0", nc[0], nc[1], i, v)
			}
		}
	}
	if b := Alloc[byte](5000, 5000); len(b) != 5000 || cap(b) != 5000 || slices.ContainsFunc(b, func(v byte) bool { return v != 0 }) {
		t.Fatalf("Alloc[byte](5000, 5000) is not 5000 zero bytes")
	}

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const pages = 4096
	fresh := func() []byte {
		b, err := syscall.Mmap(-1, 0, pages<<12, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = syscall.Munmap(b) })
		_ = syscall.Madvise(b, syscall.MADV_NOHUGEPAGE)
		return b
	}
	faults := func(b []byte) int64 {
		before := threadMinorFaults(t)
		for i := 0; i < len(b); i += 1 << 12 {
			b[i] = 1
		}
		return threadMinorFaults(t) - before
	}
	pre, demand := fresh(), fresh()
	if err := populate(pre); err != nil {
		t.Skipf("kernel refuses MADV_POPULATE_WRITE: %v", err)
	}
	nPre, nDemand := faults(pre), faults(demand)
	if nDemand < pages/2 {
		t.Fatalf("writing %d fresh pages on demand took %d minor faults, want about one per page", pages, nDemand)
	}
	if nPre > pages/8 {
		t.Errorf("writing %d populated pages took %d minor faults (on demand: %d), want few", pages, nPre, nDemand)
	}
}

// threadMinorFaults returns the calling thread's minor page faults.
func threadMinorFaults(t *testing.T) int64 {
	t.Helper()
	const rusageThread = 1 // RUSAGE_THREAD, which package syscall does not name
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		t.Skipf("no per-thread rusage: %v", err)
	}
	return ru.Minflt
}
