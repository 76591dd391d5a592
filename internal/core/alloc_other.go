//go:build !linux

package core

// makeFloats returns a zeroed slice of n float64s; only Linux advises
// its pages onto transparent huge pages.
func makeFloats(n int) []float64 { return make([]float64, n) }

// Prefault does nothing: only Linux faults a buffer's pages in ahead of
// its first write, and elsewhere the first write faults them in.
func Prefault[E any](s []E) {}
