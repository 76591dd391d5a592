//go:build linux

package core

import (
	"runtime"
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page on amd64 and on arm64
// with 4 KiB base pages.
const hugePage = 2 << 20

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux ≥ 5.14), which package
// syscall does not name.
const madvPopulateWrite = 23

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
	b := bytesOf(s)
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (start + hugePage - 1) &^ (hugePage - 1)
	hi := (start + uintptr(len(b))) &^ (hugePage - 1)
	if lo < hi {
		_ = syscall.Madvise(b[lo-start:hi-start], syscall.MADV_HUGEPAGE)
	}
	return s
}

// Prefault faults in the pages under s writable, in one
// madvise(MADV_POPULATE_WRITE) call, for a buffer just allocated and
// about to be written in full: one system call instead of a page fault
// per 4 KiB page on first touch. It neither reads nor writes the
// elements, so contents and length stay as they are. The pages stay
// plain: nothing here asks for huge pages. The call is a hint and its
// error is ignored, so a kernel older than 5.14 falls back to demand
// faults.
func Prefault[E any](s []E) { _ = prefault(bytesOf(s)) }

// prefault is Prefault's system call on the pages that hold b, from the
// one holding its first byte (madvise wants a page-aligned start; the
// page is the same mapping) to the one holding its last.
func prefault(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	page := uintptr(syscall.Getpagesize())
	lo := start &^ (page - 1)
	_, _, e := syscall.Syscall(syscall.SYS_MADVISE, lo, start+uintptr(len(b))-lo, madvPopulateWrite)
	runtime.KeepAlive(b)
	if e != 0 {
		return e
	}
	return nil
}

// bytesOf views a slice's elements as bytes.
func bytesOf[E any](s []E) []byte {
	var e E
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(e)))
}
