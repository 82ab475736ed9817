package stream

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// leakChecked holds the tests checkNoLeaks has registered a check with.
var leakChecked sync.Map

// checkNoLeaks registers, once per test, a cleanup that fails t when a
// goroutine started after the first call and running this package's code
// outlives the test, after giving such goroutines up to five seconds to
// end. It is the check of internal/remote's tests, scoped to this package.
func checkNoLeaks(t *testing.T) {
	t.Helper()
	if _, dup := leakChecked.LoadOrStore(t, true); dup {
		return
	}
	before := goroutines()
	t.Cleanup(func() {
		leakChecked.Delete(t)
		var leaked []string
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			leaked = leaked[:0]
			for id, stack := range goroutines() {
				if _, old := before[id]; !old && strings.Contains(stack, "repro/internal/stream.") {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 || time.Now().After(deadline) {
				break
			}
		}
		for _, stack := range leaked {
			t.Errorf("goroutine outlived the test:\n%s", stack)
		}
	})
}

// runChecked runs tp under checkNoLeaks and fails t if Run has not
// returned within a minute: a task goroutine nobody waits for, or one
// that never ends, fails the test that ran it.
func runChecked(t *testing.T, tp *Topology) (*Report, error) {
	t.Helper()
	checkNoLeaks(t)
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := tp.Run()
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(time.Minute):
		t.Fatal("Run still running a minute after it started")
		return nil, nil
	}
}

// goroutines returns the stack of every live goroutine by its ID.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		out[id] = g
	}
	return out
}
