//go:build !linux

package core

// Alloc returns a zeroed slice of length n and capacity c (n ≤ c); only
// Linux advises its pages onto transparent huge pages and faults them in
// ahead of the first write.
func Alloc[E any](n, c int) []E { return make([]E, n, c) }
