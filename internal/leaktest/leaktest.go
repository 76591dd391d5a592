// Package leaktest checks at run time that a lifecycle leaves no goroutine
// behind: a pool closed, a world torn down, a server drained. It counts
// goroutines, so the tests that use it must not run in parallel with
// others of their package.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Check records the goroutine count now and returns a function that
// fails t unless the count falls back to it within five seconds, the
// bound a lifecycle's last goroutines get to observe their stop signal
// and exit. The failure prints every goroutine's stack.
func Check(t testing.TB) func() {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines left running, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
