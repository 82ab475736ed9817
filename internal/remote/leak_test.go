package remote

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// leakChecked holds the tests checkNoLeaks has registered a check with.
var leakChecked sync.Map

// checkNoLeaks registers, once per test, a cleanup that fails t when a
// goroutine started after the first call and running, or started by, this
// package's code outlives the test: it runs after every cleanup registered
// later (which stop the test's workers), and gives such goroutines up to
// five seconds to end. The test helpers that start workers or sessions
// call it, so a test that uses them is checked without asking.
func checkNoLeaks(t testing.TB) {
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
				if _, old := before[id]; !old && strings.Contains(stack, "repro/internal/remote.") {
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

// serveTestWorker runs ServeWorkerOpts on ln for the rest of the test:
// the test's cleanup cancels the worker and waits for it to return, and
// checkNoLeaks then checks that nothing it started outlives the test.
func serveTestWorker(t testing.TB, ln net.Listener, o WorkerOpts) {
	t.Helper()
	checkNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeWorkerOpts(ctx, ln, o) //nolint:errcheck
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// returnsWithin runs f and returns its error, failing t if f has not
// returned within d.
func returnsWithin(t *testing.T, d time.Duration, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("still running %v after the call", d)
		return nil
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
