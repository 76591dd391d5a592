//go:build linux

package core

import (
	"bufio"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"sunwaylb/internal/lattice"
)

// vmFlags returns the VmFlags of the /proc/self/smaps mapping that holds
// addr.
func vmFlags(t *testing.T, addr uintptr) []string {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(fields[0], "-"); ok {
			a, errA := strconv.ParseUint(lo, 16, 64)
			b, errB := strconv.ParseUint(hi, 16, 64)
			if errA == nil && errB == nil {
				in = uint64(addr) >= a && uint64(addr) < b
				continue
			}
		}
		if in && fields[0] == "VmFlags:" {
			return fields[1:]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no mapping in /proc/self/smaps holds %#x", addr)
	return nil
}

// TestLargeArraysOnHugePages: the first whole 2 MiB page of an 8 MiB
// array, and of the populations of a lattice on the benchmark's
// 48×192×96 grid, sits in a mapping advised onto transparent huge pages
// (VmFlags "hg"). Without THP there is no advice to check.
func TestLargeArraysOnHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("kernel without transparent huge pages: %v", err)
	}
	if strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages are off on this host: %s", strings.TrimSpace(string(mode)))
	}
	advised := func(name string, s []float64) {
		t.Helper()
		first := (reflect.ValueOf(s).Pointer() + hugePage - 1) &^ (hugePage - 1)
		flags := vmFlags(t, first)
		for _, f := range flags {
			if f == "hg" {
				return
			}
		}
		t.Errorf("%s (%d MiB) is not advised onto huge pages: VmFlags %v", name, 8*len(s)>>20, flags)
	}
	advised("8 MiB array", makeFloats(8<<20/8))
	l, err := BuildLattice(&lattice.D3Q19, Box{NX: 48, NY: 192, NZ: 96}, 0.6, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	advised("bench-grid populations", l.Src())
}

// TestPrefaultKeepsContents: the pre-fault reads and writes no element, so
// a written slice keeps its length and every value, also when it starts
// inside a page and ends inside another; and a fresh buffer it faulted in
// takes (almost) no page fault when it is then written in full, where a
// fresh buffer written on demand takes about one per page. Both buffers
// are fresh anonymous mappings kept off huge pages, so their faults count
// 4 KiB pages whatever the host's transparent huge page mode. A kernel
// older than 5.14 refuses the advice, and only the first half is checked.
func TestPrefaultKeepsContents(t *testing.T) {
	s := make([]float64, 3000)
	for i := range s {
		s[i] = float64(i) + 0.25
	}
	part := s[7:2999]
	Prefault(part)
	Prefault(s[:0])
	Prefault([]byte(nil))
	if len(part) != 2992 || cap(part) != 2993 {
		t.Fatalf("pre-fault changed the slice to len %d cap %d", len(part), cap(part))
	}
	for i, v := range s {
		if v != float64(i)+0.25 {
			t.Fatalf("element %d reads %v after the pre-fault, want %v", i, v, float64(i)+0.25)
		}
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
	if err := prefault(pre); err != nil {
		t.Skipf("kernel refuses MADV_POPULATE_WRITE: %v", err)
	}
	nPre, nDemand := faults(pre), faults(demand)
	if nDemand < pages/2 {
		t.Fatalf("writing %d fresh pages on demand took %d minor faults, want about one per page", pages, nDemand)
	}
	if nPre > pages/8 {
		t.Errorf("writing %d pre-faulted pages took %d minor faults (on demand: %d), want few", pages, nPre, nDemand)
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
