package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bundle"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

func testSession(tau float64, strategy string, bounds []int) Session {
	return Session{
		Params:   filter.Params{Func: similarity.Jaccard, Threshold: tau},
		Strategy: strategy,
		Bounds:   bounds,
	}
}

// silentLogf discards worker session logs: sessions end with EOF errors
// when test cleanup closes connections, and logging through t.Logf from a
// goroutine after the test completes panics.
func silentLogf(string, ...interface{}) {}

// startWorkers launches n loopback TCP workers and returns dialed
// connections; the test's cleanup closes them and stops the workers.
func startWorkers(t *testing.T, n int) []net.Conn {
	t.Helper()
	var conns []net.Conn
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveTestWorker(t, ln, WorkerOpts{Logf: silentLogf})
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns = append(conns, c)
	}
	return conns
}

func asRW(conns []net.Conn) []io.ReadWriter {
	out := make([]io.ReadWriter, len(conns))
	for i, c := range conns {
		out[i] = c
	}
	return out
}

func singleNodePairs(recs []*record.Record, tau float64, win window.Policy) map[record.Pair]bool {
	j := local.New(local.Naive, local.Options{
		Params: filter.Params{Func: similarity.Jaccard, Threshold: tau},
		Window: win,
	})
	out := make(map[record.Pair]bool)
	for _, r := range recs {
		j.Step(r, true, func(m local.Match) {
			out[record.Pair{First: minID(r.ID, m.Rec.ID), Second: maxID(r.ID, m.Rec.ID)}] = true
		})
	}
	return out
}

func minID(a, b record.ID) record.ID {
	if a < b {
		return a
	}
	return b
}
func maxID(a, b record.ID) record.ID {
	if a < b {
		return b
	}
	return a
}

func boundsFor(recs []*record.Record, tau float64, k int) []int {
	var h partition.Histogram
	for _, r := range recs {
		h.Add(r.Len())
	}
	w := partition.CostModel{Params: filter.Params{Func: similarity.Jaccard, Threshold: tau}}.Weights(&h)
	return partition.LoadAware(w, k).Bounds
}

// TestRemoteMatchesSingleNode is the end-to-end gate for the TCP runtime:
// every strategy over real sockets must reproduce the single-node result
// set exactly.
func TestRemoteMatchesSingleNode(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(31)).Generate(500)
	const tau = 0.7
	want := singleNodePairs(recs, tau, window.Unbounded{})
	for _, strat := range []string{"length", "prefix", "broadcast"} {
		k := 3
		sess := testSession(tau, strat, nil)
		if strat == "length" {
			sess.Bounds = boundsFor(recs, tau, k)
		}
		conns := startWorkers(t, k)
		sum, err := Run(context.Background(), asRW(conns), sess, recs, true)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		got := make(map[record.Pair]bool)
		for _, p := range sum.Pairs {
			key := record.Pair{First: p.First, Second: p.Second}
			if got[key] {
				t.Fatalf("%s: duplicate pair %v", strat, key)
			}
			got[key] = true
		}
		if len(got) != len(want) {
			t.Fatalf("%s: got %d pairs want %d", strat, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("%s: missing %v", strat, p)
			}
		}
		if sum.BytesSent == 0 || sum.TuplesSent == 0 {
			t.Fatalf("%s: traffic not counted: %+v", strat, sum)
		}
	}
}

func TestRemoteWindowedBundleSession(t *testing.T) {
	recs := workload.NewGenerator(workload.AOLLike(7)).Generate(800)
	const tau = 0.8
	win := window.Count{N: 200}
	sess := Session{
		Params:    filter.Params{Func: similarity.Jaccard, Threshold: tau},
		Algorithm: local.Bundled,
		Window:    win,
		Bundle:    bundle.Config{MaxMembers: 16},
		Strategy:  "length",
		Bounds:    boundsFor(recs, tau, 2),
	}
	conns := startWorkers(t, 2)
	sum, err := Run(context.Background(), asRW(conns), sess, recs, false)
	if err != nil {
		t.Fatal(err)
	}
	want := singleNodePairs(recs, tau, win)
	if int(sum.Results) != len(want) {
		t.Fatalf("results: got %d want %d", sum.Results, len(want))
	}
	var stored uint64
	for _, st := range sum.WorkerStats {
		stored += st.Stored
	}
	if stored != uint64(len(recs)) {
		t.Fatalf("length strategy replicated: stored %d of %d", stored, len(recs))
	}
}

func TestRemoteStatsPlumbing(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(3)).Generate(200)
	sess := testSession(0.6, "broadcast", nil)
	conns := startWorkers(t, 2)
	sum, err := Run(context.Background(), asRW(conns), sess, recs, false)
	if err != nil {
		t.Fatal(err)
	}
	var probes uint64
	for _, st := range sum.WorkerStats {
		probes += st.Probes
	}
	if probes != uint64(2*len(recs)) { // broadcast probes everywhere
		t.Fatalf("probes: got %d want %d", probes, 2*len(recs))
	}
	if sum.Elapsed <= 0 {
		t.Fatal("elapsed missing")
	}
}

func TestRemoteRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, testSession(0.8, "length", nil), nil, false); err == nil {
		t.Fatal("expected error for zero workers")
	}
	conns := startWorkers(t, 2)
	if _, err := Run(context.Background(), asRW(conns), testSession(0.8, "length", []int{5}), nil, false); err == nil {
		t.Fatal("expected bounds mismatch error")
	}
	if _, err := Run(context.Background(), asRW(conns), testSession(0.8, "bogus", nil), nil, false); err == nil {
		t.Fatal("expected unknown strategy error")
	}
	// A worker drops a record ID at or below its last one as a replay.
	same := []*record.Record{{ID: 3, Tokens: []uint32{1}}, {ID: 3, Time: 1, Tokens: []uint32{1}}}
	if _, err := Run(context.Background(), asRW(conns), testSession(0.8, "broadcast", nil), same, false); err == nil ||
		!strings.Contains(err.Error(), "strictly increasing") {
		t.Fatalf("repeated record id: %v, want the strictly increasing ids error", err)
	}
}

// TestRunClosesItsConns: Run closes every connection it was given, after a
// finished session and after refusing its arguments alike.
func TestRunClosesItsConns(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(4)).Generate(100)
	for _, tc := range []struct {
		name string
		sess Session
	}{{"finished", testSession(0.7, "broadcast", nil)}, {"refused", testSession(0.7, "bogus", nil)}} {
		conns := startWorkers(t, 2)
		_, err := Run(context.Background(), asRW(conns), tc.sess, recs, false)
		if (err == nil) != (tc.name == "finished") {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, c := range conns {
			if _, err := c.Write([]byte{0}); !errors.Is(err, net.ErrClosed) {
				t.Errorf("%s: connection %d still open after Run: write returned %v", tc.name, i, err)
			}
		}
	}
}

// TestRunSeversASilentWorker: a worker that reads the hello and never
// answers is severed once the default HeartbeatTimeout (five seconds)
// passes, and Run fails without a cancellation.
func TestRunSeversASilentWorker(t *testing.T) {
	checkNoLeaks(t)
	srv, cli := net.Pipe()
	t.Cleanup(func() { srv.Close() })
	go io.Copy(io.Discard, srv) //nolint:errcheck
	recs := workload.NewGenerator(workload.UniformSmall(4)).Generate(10)
	start := time.Now()
	err := returnsWithin(t, 15*time.Second, func() error {
		_, err := Run(context.Background(), []io.ReadWriter{cli}, testSession(0.7, "broadcast", nil), recs, false)
		return err
	})
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("Run against a silent worker: %v, want a failed attempt", err)
	}
	if d := time.Since(start); d < 5*time.Second {
		t.Errorf("Run gave up on a silent worker after %v, before the heartbeat timeout", d)
	}
}

func TestWorkerRejectsBadHandshake(t *testing.T) {
	conns := startWorkers(t, 1)
	c := conns[0]
	// Send a record before any hello.
	w := wire.NewWriter(c)
	if err := w.WriteRecord(true, &record.Record{ID: 1, Tokens: []uint32{1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Worker must close the connection without sending stats.
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("worker answered a session with no handshake")
	}
}

func TestWorkerDiesMidRunSurfacesError(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(9)).Generate(5000)
	sess := testSession(0.6, "broadcast", nil)

	// One healthy worker, one that accepts then slams the connection.
	healthy := startWorkers(t, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
		conn.Close()
	}()
	evil, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()

	_, err = Run(context.Background(), []io.ReadWriter{healthy[0], evil}, sess, recs, false)
	if err == nil {
		t.Fatal("dead worker went unnoticed")
	}
}

func TestHandleSessionOverPipes(t *testing.T) {
	// The session handler is transport-agnostic: drive it over in-memory
	// pipes with a hand-rolled coordinator.
	cr, ww := io.Pipe() // worker writes results
	wr, cw := io.Pipe() // coordinator writes records
	done := make(chan error, 1)
	go func() { done <- HandleSession(context.Background(), wr, ww) }()

	w := wire.NewWriter(cw)
	h, err := testSession(0.9, "broadcast", nil).hello(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(true, &record.Record{ID: 0, Tokens: []uint32{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRecord(true, &record.Record{ID: 1, Time: 1, Tokens: []uint32{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEOF(); err != nil {
		t.Fatal(err)
	}

	rd := wire.NewReader(cr)
	typ, err := rd.Next()
	if err != nil || typ != wire.TypeResult {
		t.Fatalf("first frame: %v %v", typ, err)
	}
	res, err := rd.ReadResult()
	if err != nil || res.A != 0 || res.B != 1 || res.Sim != 1.0 {
		t.Fatalf("result: %+v %v", res, err)
	}
	typ, err = rd.Next()
	if err != nil || typ != wire.TypeStats {
		t.Fatalf("second frame: %v %v", typ, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("session: %v", err)
	}
}

func TestSessionHelloErrors(t *testing.T) {
	s := testSession(0.8, "length", []int{1, 2})
	if _, err := s.hello(0, 3); err == nil || !strings.Contains(err.Error(), "bounds") {
		t.Fatalf("expected bounds error, got %v", err)
	}
}

// TestWorkerRefusesInconsistentHello: a worker refuses, as a session
// error, each Hello whose fields disagree with one another or name nothing
// it knows, and the session already running on it completes.
func TestWorkerRefusesInconsistentHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// One line per session the worker ends with an error; the buffer
	// holds more than the six bad cases, so the worker never blocks.
	logs := make(chan string, 16)
	serveTestWorker(t, ln, WorkerOpts{Logf: func(format string, args ...interface{}) {
		logs <- fmt.Sprintf(format, args...)
	}})
	open := func(h wire.Hello) (net.Conn, *wire.Writer) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		w := wire.NewWriter(conn)
		if err := w.WriteHello(h); err != nil {
			t.Fatal(err)
		}
		return conn, w
	}
	valid := func() wire.Hello {
		h, err := testSession(0.9, "broadcast", nil).hello(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	// The running session: a hello and some records, no EOF yet.
	recs := workload.NewGenerator(workload.UniformSmall(7)).Generate(200)
	conn, w := open(valid())
	for _, r := range recs {
		if err := w.WriteRecord(true, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Each bad session sends two equal records and EOF after its hello,
	// enough to reach Step, Stores and Emits.
	twin := []*record.Record{{ID: 0, Tokens: []uint32{1, 2, 3}}, {ID: 1, Tokens: []uint32{1, 2, 3}}}
	for _, tc := range []struct {
		name string
		edit func(h *wire.Hello)
	}{
		{"prefix over zero workers", func(h *wire.Hello) { h.Strategy, h.Workers = 1, 0 }},
		{"algorithm 99", func(h *wire.Hello) { h.Algorithm = 99 }},
		{"func 99", func(h *wire.Hello) { h.Func = 99 }},
		{"task beyond the workers", func(h *wire.Hello) { h.Task = h.Workers }},
		{"length without bounds", func(h *wire.Hello) { h.Strategy, h.Bounds = 0, nil }},
		{"negative count window", func(h *wire.Hello) { h.WindowKind, h.WindowN = 1, -5 }},
	} {
		h := valid()
		tc.edit(&h)
		bad, bw := open(h)
		for _, r := range twin {
			if err := bw.WriteRecord(true, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.WriteEOF(); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		// The worker ends the session without a frame and closes.
		bad.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := bad.Read(make([]byte, 1)); n > 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: worker answered with %d bytes, %v", tc.name, n, err)
		}
		if msg := <-logs; !strings.Contains(msg, "session ended with error") {
			t.Errorf("%s: worker logged %q", tc.name, msg)
		}
	}

	if err := w.WriteEOF(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(conn)
	for {
		typ, err := rd.Next()
		if err != nil {
			t.Fatalf("running session: %v", err)
		}
		if typ == wire.TypeStats {
			st, err := rd.ReadStats()
			if err != nil || st.Probes != uint64(len(recs)) {
				t.Fatalf("running session stats %+v, %v; want %d probes", st, err, len(recs))
			}
			return
		}
	}
}

// TestWorkerServesConcurrentSessions: one worker process must handle
// several independent coordinator sessions at the same time without
// cross-talk.
func TestWorkerServesConcurrentSessions(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serveTestWorker(t, ln, WorkerOpts{Logf: silentLogf})

	const sessions = 4
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		go func(seed int64) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			recs := workload.NewGenerator(workload.UniformSmall(seed)).Generate(300)
			sum, err := Run(context.Background(), []io.ReadWriter{conn}, testSession(0.7, "broadcast", nil), recs, false)
			if err != nil {
				errs <- err
				return
			}
			want := singleNodePairs(recs, 0.7, window.Unbounded{})
			if int(sum.Results) != len(want) {
				errs <- fmt.Errorf("seed %d: got %d results want %d", seed, sum.Results, len(want))
				return
			}
			errs <- nil
		}(int64(s + 1))
	}
	for s := 0; s < sessions; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteLargeSession pushes a bigger stream through a 4-worker fleet to
// exercise buffering and backpressure on real sockets.
func TestRemoteLargeSession(t *testing.T) {
	if testing.Short() {
		t.Skip("large session")
	}
	recs := workload.NewGenerator(workload.AOLLike(77)).Generate(20000)
	const tau = 0.8
	sess := testSession(tau, "length", boundsFor(recs, tau, 4))
	sess.Algorithm = local.Bundled
	conns := startWorkers(t, 4)
	sum, err := Run(context.Background(), asRW(conns), sess, recs, false)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Results == 0 {
		t.Fatal("no results on a duplicate-heavy stream")
	}
	var stored uint64
	for _, st := range sum.WorkerStats {
		stored += st.Stored
	}
	if stored != uint64(len(recs)) {
		t.Fatalf("replication detected: %d stored copies", stored)
	}
}

// TestSnapshotSeedAndResume splits a stream across two remote sessions:
// run the first half requesting snapshots, then seed a second session
// (fresh workers) with them — the combined results must match one
// uninterrupted run.
func TestSnapshotSeedAndResume(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(55)).Generate(600)
	const tau = 0.7
	const cut = 350
	sess := testSession(tau, "broadcast", nil)
	k := 2

	// Uninterrupted reference over fresh workers.
	ref := startWorkers(t, k)
	full, err := Run(context.Background(), asRW(ref), sess, recs, false)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1 with snapshot collection.
	phase1Conns := startWorkers(t, k)
	sum1, err := RunWithOpts(context.Background(), asRW(phase1Conns), sess, recs[:cut], Opts{Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum1.Snapshots) != k {
		t.Fatalf("snapshots: %d", len(sum1.Snapshots))
	}
	for i, blob := range sum1.Snapshots {
		if len(blob) == 0 {
			t.Fatalf("worker %d snapshot empty", i)
		}
	}

	// Phase 2 on brand-new workers seeded from the snapshots.
	phase2Conns := startWorkers(t, k)
	sum2, err := RunWithOpts(context.Background(), asRW(phase2Conns), sess, recs[cut:], Opts{Seed: sum1.Snapshots})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum1.Results+sum2.Results, full.Results; got != want {
		t.Fatalf("split results %d (=%d+%d) != full %d", got, sum1.Results, sum2.Results, want)
	}
}

// TestSnapshotSeedWithLengthStrategy ensures seeding works when the stored
// records are partitioned by length: each worker's snapshot returns to the
// same task index, so routing stays consistent.
func TestSnapshotSeedWithLengthStrategy(t *testing.T) {
	recs := workload.NewGenerator(workload.AOLLike(66)).Generate(600)
	const tau = 0.8
	k := 3
	bounds := boundsFor(recs, tau, k)
	sess := testSession(tau, "length", bounds)

	ref := startWorkers(t, k)
	full, err := Run(context.Background(), asRW(ref), sess, recs, false)
	if err != nil {
		t.Fatal(err)
	}

	const cut = 300
	c1 := startWorkers(t, k)
	sum1, err := RunWithOpts(context.Background(), asRW(c1), sess, recs[:cut], Opts{Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	c2 := startWorkers(t, k)
	sum2, err := RunWithOpts(context.Background(), asRW(c2), sess, recs[cut:], Opts{Seed: sum1.Snapshots})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sum1.Results+sum2.Results, full.Results; got != want {
		t.Fatalf("split results %d != full %d", got, want)
	}
}

func TestDialConnectsAndFailsCleanly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serveTestWorker(t, ln, WorkerOpts{Logf: silentLogf})
	conns, err := Dial(context.Background(), []string{ln.Addr().String()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		c.Close()
	}
	// A dead address must fail and close the earlier connections.
	if _, err := Dial(context.Background(), []string{ln.Addr().String(), "127.0.0.1:1"}, 200*time.Millisecond); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	// A cancelled context stops Dial before it connects. A loopback dial
	// completes before a cancel could land mid-call, so the context is
	// cancelled up front.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if conns, err := Dial(ctx, []string{ln.Addr().String()}, 2*time.Second); !errors.Is(err, context.Canceled) || conns != nil {
		t.Fatalf("Dial under a cancelled context = (%v, %v), want context canceled", conns, err)
	}
}

// TestRemoteBiJoinMatchesLocal: the two-stream session over real sockets
// must match a local BiJoiner run.
func TestRemoteBiJoinMatchesLocal(t *testing.T) {
	base := workload.NewGenerator(workload.UniformSmall(91)).Generate(400)
	recs := make([]BiRecord, len(base))
	for i, r := range base {
		recs[i] = BiRecord{Rec: r, Right: i%2 == 1}
	}
	const tau = 0.7
	// Local reference.
	bi := local.NewBi(local.Naive, local.Options{
		Params: filter.Params{Func: similarity.Jaccard, Threshold: tau},
	})
	want := make(map[record.Pair]bool)
	for _, br := range recs {
		br := br
		emit := func(m local.Match) {
			want[record.NewPair(br.Rec.ID, m.Rec.ID, 0)] = true
		}
		bi.StepSide(br.Rec, br.Right, true, emit)
	}

	for _, strat := range []string{"length", "prefix", "broadcast"} {
		k := 3
		sess := testSession(tau, strat, nil)
		sess.Bi = true
		if strat == "length" {
			sess.Bounds = boundsFor(base, tau, k)
		}
		conns := startWorkers(t, k)
		sum, err := RunBi(context.Background(), asRW(conns), sess, recs, Opts{CollectPairs: true})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		got := make(map[record.Pair]bool)
		for _, p := range sum.Pairs {
			key := record.Pair{First: p.First, Second: p.Second}
			if got[key] {
				t.Fatalf("%s: duplicate %v", strat, key)
			}
			got[key] = true
		}
		if len(got) != len(want) {
			t.Fatalf("%s: got %d pairs want %d", strat, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("%s: missing %v", strat, p)
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate: no cross pairs")
	}
}

func TestRemoteBiValidation(t *testing.T) {
	sess := testSession(0.8, "broadcast", nil)
	if _, err := RunBi(context.Background(), nil, sess, nil, Opts{}); err == nil {
		t.Fatal("RunBi without Session.Bi accepted")
	}
	sess.Bi = true
	if _, err := RunBi(context.Background(), nil, sess, nil, Opts{Snapshot: true}); err == nil {
		t.Fatal("bi snapshot accepted")
	}
	if _, err := RunWithOpts(context.Background(), nil, sess, nil, Opts{}); err == nil {
		t.Fatal("RunWithOpts with bi session accepted")
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	conns := startWorkers(t, 2)
	_, err := Run(ctx, asRW(conns), testSession(0.8, "length", []int{5}), nil, false)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err = %v, want context canceled", err)
	}
}

// TestRunCancelledMidSession points each plain coordinator entry point at
// a worker that accepts the connection but never answers, so the run can
// only end via cancellation.
func TestRunCancelledMidSession(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, send nothing
		}
	}()

	recs := workload.NewGenerator(workload.AOLLike(3)).Generate(50)
	biRecs := make([]BiRecord, len(recs))
	for i, r := range recs {
		biRecs[i] = BiRecord{Rec: r, Right: i%2 == 1}
	}
	sess := testSession(0.8, "broadcast", nil)
	biSess := sess
	biSess.Bi = true
	for name, run := range map[string]func(ctx context.Context, conns []io.ReadWriter) error{
		"Run": func(ctx context.Context, conns []io.ReadWriter) error {
			_, err := Run(ctx, conns, sess, recs, false)
			return err
		},
		"RunWithOpts": func(ctx context.Context, conns []io.ReadWriter) error {
			_, err := RunWithOpts(ctx, conns, sess, recs, Opts{CollectPairs: true})
			return err
		},
		"RunBi": func(ctx context.Context, conns []io.ReadWriter) error {
			_, err := RunBi(ctx, conns, biSess, biRecs, Opts{})
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			checkNoLeaks(t)
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			err = returnsWithin(t, 5*time.Second, func() error { return run(ctx, []io.ReadWriter{conn}) })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context canceled", err)
			}
		})
	}
}

// TestServeWorkerStopsOnCancel cancels a worker in the middle of a
// session whose coordinator still holds the connection open: the
// cancellation must close the listener and end the session, and
// ServeWorker must return nil within a bound and only after the
// session's goroutine has finished, its last log line included.
func TestServeWorkerStopsOnCancel(t *testing.T) {
	checkNoLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The session goroutine logs its end last; a slow log makes a return
	// that does not wait for it certain to be seen.
	var logged atomic.Bool
	logf := func(string, ...interface{}) {
		time.Sleep(200 * time.Millisecond)
		logged.Store(true)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- ServeWorker(ctx, ln, logf) }()

	// A ping answered proves the session is in its frame loop.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h, err := testSession(0.8, "broadcast", nil).hello(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(conn)
	if err := w.WriteHello(h); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePing(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, err := wire.NewReader(conn).Next(); err != nil || typ != wire.TypePong {
		t.Fatalf("answer to a ping: type %d, %v", typ, err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeWorker returned %v after cancel, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWorker did not return after cancellation")
	}
	if !logged.Load() {
		t.Fatal("ServeWorker returned before its session ended")
	}
}

// TestHandleSessionStopsOnCancel: a session whose coordinator keeps
// sending frames ends with the context's error once the context is
// cancelled.
func TestHandleSessionStopsOnCancel(t *testing.T) {
	for name, handle := range map[string]func(ctx context.Context, r io.Reader, w io.Writer) error{
		"HandleSession": HandleSession,
		"HandleSessionOpts": func(ctx context.Context, r io.Reader, w io.Writer) error {
			return HandleSessionOpts(ctx, r, w, WorkerOpts{Logf: silentLogf})
		},
	} {
		t.Run(name, func(t *testing.T) {
			checkNoLeaks(t)
			h, err := testSession(0.8, "broadcast", nil).hello(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			srv, cli := net.Pipe()
			defer cli.Close()
			go io.Copy(io.Discard, cli) //nolint:errcheck
			// Pings until the pipe closes: each one wakes the session loop.
			go func() {
				w := wire.NewWriter(cli)
				if w.WriteHello(h) != nil {
					return
				}
				for w.WritePing() == nil {
					time.Sleep(time.Millisecond)
				}
			}()
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(50*time.Millisecond, cancel)
			err = returnsWithin(t, 5*time.Second, func() error {
				defer srv.Close()
				return handle(ctx, srv, srv)
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("session = %v, want context canceled", err)
			}
		})
	}
}
