//go:build linux

package core

import (
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page on amd64 and on arm64
// with 4 KiB base pages.
const hugePage = 2 << 20

// makeFloats returns a zeroed slice of n float64s for an array that a run
// allocates once and then writes in full. Before anything writes it, it
// advises the kernel (MADV_HUGEPAGE) on the whole 2 MiB pages that lie
// inside the slice, so their first touch faults one huge page instead of
// 512 small ones. The advice covers only the slice's own pages: an array
// that holds no whole huge page is not advised, and the flag, which the
// address range keeps after the collector frees the slice, never lands
// on a neighbour's memory. The memory stays on the Go heap and the
// garbage collector stays its only owner. The advice is a hint and its
// error is ignored: a kernel without transparent huge pages keeps 4 KiB
// pages, and a span the runtime reused was already touched.
func makeFloats(n int) []float64 {
	s := make([]float64, n)
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*n)
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (start + hugePage - 1) &^ (hugePage - 1)
	hi := (start + uintptr(len(b))) &^ (hugePage - 1)
	if lo < hi {
		_ = syscall.Madvise(b[lo-start:hi-start], syscall.MADV_HUGEPAGE)
	}
	return s
}
