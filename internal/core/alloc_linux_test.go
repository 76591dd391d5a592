//go:build linux

package core

import (
	"bufio"
	"os"
	"reflect"
	"strconv"
	"strings"
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
