//go:build linux

package alloctest

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// hugePage is the size of a transparent huge page on amd64 and on arm64
// with 4 KiB base pages.
const hugePage = 2 << 20

// OnHugePages fails t unless the first whole 2 MiB page inside s's
// capacity sits in a mapping advised onto transparent huge pages
// (VmFlags "hg" in /proc/self/smaps). It skips t where the kernel has no
// transparent huge pages or has them off: there is no advice to check.
func OnHugePages[E any](t testing.TB, name string, s []E) {
	t.Helper()
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("kernel without transparent huge pages: %v", err)
	}
	if strings.Contains(string(mode), "[never]") {
		t.Skipf("transparent huge pages are off on this host: %s", strings.TrimSpace(string(mode)))
	}
	var e E
	start := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	size := uintptr(cap(s)) * unsafe.Sizeof(e)
	first := (start + hugePage - 1) &^ (hugePage - 1)
	if first+hugePage > start+size {
		t.Fatalf("%s (%d B) holds no whole huge page", name, size)
	}
	flags := vmFlags(t, first)
	for _, f := range flags {
		if f == "hg" {
			return
		}
	}
	t.Errorf("%s (%d MiB) is not advised onto huge pages: VmFlags %v", name, size>>20, flags)
}

// vmFlags returns the VmFlags of the /proc/self/smaps mapping that holds
// addr.
func vmFlags(t testing.TB, addr uintptr) []string {
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
