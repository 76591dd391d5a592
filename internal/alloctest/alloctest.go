// Package alloctest counts the heap allocations this module's code makes
// in a measured region of a test. A strict "allocates nothing" check over
// runtime.MemStats also counts what the Go runtime allocates on its own —
// its timer heap growing under the background scavenger, say — which
// fails such a check now and then on a quiet region. The memory profile
// keeps each allocation's stack, so a count can keep only the allocations
// made below a frame of this module, leaving out the runtime's own caches
// that a module call may refill: the sudog a blocked channel operation
// parks on (runtime.acquireSudog, 96 B), which a loaded -race run
// allocates now and then under an mpi receive.
package alloctest

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// Main runs a package's tests with every allocation recorded in the
// memory profile. Call it from TestMain.
func Main(m *testing.M) {
	runtime.MemProfileRate = 1
	os.Exit(m.Run())
}

// Mark is the profile's per-stack allocation totals of this module at one
// point of a test.
type Mark map[[32]uintptr]runtime.MemProfileRecord

// Take runs a garbage collection, which publishes every allocation made
// so far to the profile, and returns the records whose stack holds a
// frame of this module (and none of this package).
func Take() Mark {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	m := make(Mark)
	for _, r := range recs[:n] {
		if ours(r.Stack()) {
			m[r.Stack0] = r
		}
	}
	return m
}

// Since returns the objects and bytes this module's code allocated since
// m was taken.
func (m Mark) Since() (objects, bytes int64) {
	for k, r := range Take() {
		objects += r.AllocObjects - m[k].AllocObjects
		bytes += r.AllocBytes - m[k].AllocBytes
	}
	return objects, bytes
}

// ours reports whether an allocation stack runs through this module's
// code, not through this package's own bookkeeping or a runtime cache.
func ours(stack []uintptr) bool {
	found := false
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if f.Function == "runtime.acquireSudog" || strings.HasPrefix(f.Function, "sunwaylb/internal/alloctest.") {
			return false
		}
		found = found || strings.HasPrefix(f.Function, "sunwaylb/")
		if !more {
			return found
		}
	}
}
