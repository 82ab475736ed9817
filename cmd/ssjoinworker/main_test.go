package main

import (
	"bytes"
	"flag"
	"log"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a log sink the test can read while run writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSIGTERMShutsDownCleanly runs the worker with its monitoring server,
// sends the process SIGTERM, and requires run to return 0 within a bound:
// the shutdown waits for the monitoring server's goroutine, so one that
// never signals its end hangs the worker.
func TestSIGTERMShutsDownCleanly(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	// run defines its flags on the default FlagSet; give it a fresh one.
	args, flags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, flags }()
	os.Args = []string{"ssjoinworker", "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)

	done := make(chan int, 1)
	go func() { done <- run() }()
	// The signal handler is installed before the listener opens.
	for deadline := time.Now().Add(5 * time.Second); !strings.Contains(logs.String(), "listening on"); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the worker did not start listening; log:\n%s", logs.String())
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 || !strings.Contains(logs.String(), "shut down cleanly") {
			t.Fatalf("run = %d after SIGTERM; log:\n%s", code, logs.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the worker did not shut down within 10s of SIGTERM; log:\n%s", logs.String())
	}
}
