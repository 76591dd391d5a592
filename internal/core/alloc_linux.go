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

// Alloc returns a zeroed slice of length n and capacity c (n ≤ c) for an
// array that a run writes in full: the lattice's populations, a snapshot
// record, a wave's transport buffer, a gathered payload. Before anything
// writes it, it
//   - advises the kernel (MADV_HUGEPAGE) on the whole 2 MiB pages that
//     lie inside [0:c), so they fault one huge page instead of 512 small
//     ones, and
//   - faults [0:n) in writable, in one madvise(MADV_POPULATE_WRITE) call
//     instead of a fault per page on first touch.
//
// The advice covers only the slice's own pages: an array that holds no
// whole huge page is not advised, and the flag, which the address range
// keeps after the collector frees the slice, never lands on a
// neighbour's memory. The memory stays on the Go heap and the garbage
// collector stays its only owner. Both calls are hints and their errors
// are ignored: a kernel without transparent huge pages keeps 4 KiB
// pages, one older than 5.14 falls back to demand faults, and a span the
// runtime reused was already touched (and zeroed on its old pages).
func Alloc[E any](n, c int) []E {
	s := make([]E, n, c)
	b := bytesOf(s[:c])
	start := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	lo := (start + hugePage - 1) &^ (hugePage - 1)
	hi := (start + uintptr(len(b))) &^ (hugePage - 1)
	if lo < hi {
		_ = syscall.Madvise(b[lo-start:hi-start], syscall.MADV_HUGEPAGE)
	}
	_ = populate(bytesOf(s))
	return s
}

// populate faults in the pages that hold b writable, from the one
// holding its first byte (madvise wants a page-aligned start; the page
// is the same mapping) to the one holding its last. It neither reads nor
// writes the bytes.
func populate(b []byte) error {
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
