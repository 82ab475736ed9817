package remote

import (
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultwire"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

// readResultFrames reads a worker's frames in the background and hands
// over the pairs of each Result frame, one receive per frame. The channel
// closes at the Stats frame or when the connection ends.
func readResultFrames(t *testing.T, r io.Reader) <-chan []wire.Result {
	ch := make(chan []wire.Result, 16)
	go func() {
		defer close(ch)
		rd := wire.NewReader(r)
		for {
			typ, err := rd.Next()
			if err != nil || typ == wire.TypeStats {
				return
			}
			if typ != wire.TypeResult {
				continue
			}
			rs, err := readResults(rd, nil)
			if err != nil {
				t.Errorf("result frame: %v", err)
				return
			}
			ch <- rs
		}
	}()
	return ch
}

// checkFrame requires frame to be probe's frame with exactly the given
// partners, in any order.
func checkFrame(t *testing.T, frame []wire.Result, probe record.ID, partners ...record.ID) {
	t.Helper()
	want := make(map[record.Pair]bool, len(partners))
	for _, p := range partners {
		want[record.Pair{First: minID(probe, p), Second: maxID(probe, p)}] = true
	}
	got := make(map[record.Pair]bool, len(frame))
	for _, res := range frame {
		got[record.Pair{First: res.A, Second: res.B}] = true
	}
	if len(frame) != len(partners) || len(got) != len(want) {
		t.Fatalf("probe %d: frame holds %v, want one pair with each of %v", probe, frame, partners)
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("probe %d: frame holds %v, want one pair with each of %v", probe, frame, partners)
		}
	}
}

var (
	matchToks = []uint32{1, 2, 3} // every record with these tokens matches every other
	aloneToks = []uint32{7, 8, 9} // matches nothing else in these streams
)

// TestOneResultFramePerProbe pins the worker's result framing: a record
// with k partners yields exactly one Result frame holding k pairs, a
// record with no match yields none, and so does a loaded record, so that a
// reconnected FT session that loads its window re-sends the frames its
// records first went out in.
func TestOneResultFramePerProbe(t *testing.T) {
	// session runs one worker session over io.Pipe: it sends h, the
	// records (through send) and EOF, and returns every Result frame.
	session := func(t *testing.T, h wire.Hello, send func(w *wire.Writer) error) [][]wire.Result {
		cr, ww := io.Pipe()
		wr, cw := io.Pipe()
		done := make(chan error, 1)
		go func() { done <- HandleSession(context.Background(), wr, ww) }()
		frames := readResultFrames(t, cr)
		w := wire.NewWriter(cw)
		if err := w.WriteHello(h); err != nil {
			t.Fatal(err)
		}
		if err := send(w); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteEOF(); err != nil {
			t.Fatal(err)
		}
		var got [][]wire.Result
		for fr := range frames {
			got = append(got, fr)
		}
		if err := <-done; err != nil {
			t.Fatalf("session: %v", err)
		}
		return got
	}

	t.Run("single stream", func(t *testing.T) {
		h, err := testSession(0.9, "broadcast", nil).hello(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := session(t, h, func(w *wire.Writer) error {
			for id, toks := range [][]uint32{matchToks, matchToks, matchToks, aloneToks, matchToks} {
				if err := w.WriteRecord(true, &record.Record{ID: record.ID(id), Time: int64(id), Tokens: toks}); err != nil {
					return err
				}
			}
			return nil
		})
		if len(got) != 3 {
			t.Fatalf("%d result frames %v, want 3: records 0 and 3 match nothing", len(got), got)
		}
		checkFrame(t, got[0], 1, 0)
		checkFrame(t, got[1], 2, 0, 1)
		checkFrame(t, got[2], 4, 0, 1, 2)
	})

	t.Run("bi", func(t *testing.T) {
		sess := testSession(0.9, "broadcast", nil)
		sess.Bi = true
		h, err := sess.hello(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := session(t, h, func(w *wire.Writer) error {
			for id, rec := range []struct {
				right bool
				toks  []uint32
			}{{false, matchToks}, {false, matchToks}, {true, matchToks}, {false, aloneToks}, {true, matchToks}} {
				r := &record.Record{ID: record.ID(id), Time: int64(id), Tokens: rec.toks}
				if err := w.WriteRecordSide(true, rec.right, r); err != nil {
					return err
				}
			}
			return nil
		})
		// Record 1 only meets its own side, record 4 only the left records.
		if len(got) != 2 {
			t.Fatalf("%d result frames %v, want 2", len(got), got)
		}
		checkFrame(t, got[0], 2, 0, 1)
		checkFrame(t, got[1], 4, 0, 1)
	})

	t.Run("replayed window", func(t *testing.T) {
		h, err := testSession(0.9, "broadcast", nil).hello(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		h.FT, h.SessionID = true, 0xBA7C4
		rec := func(id record.ID) *record.Record {
			return &record.Record{ID: id, Time: int64(id), Tokens: matchToks}
		}
		first := session(t, h, func(w *wire.Writer) error {
			for id := record.ID(0); id < 3; id++ {
				if err := w.WriteRecord(true, rec(id)); err != nil {
					return err
				}
			}
			return nil
		})
		// A reconnect at the mark after record 0: record 0 loaded, records
		// 1 to 3 probed. The load yields no frame, and records 1 and 2 yield
		// the frames the first connection sent.
		got := session(t, h, func(w *wire.Writer) error {
			if err := w.WriteLoad(false, rec(0)); err != nil {
				return err
			}
			for id := record.ID(1); id < 4; id++ {
				if err := w.WriteRecord(true, rec(id)); err != nil {
					return err
				}
			}
			return nil
		})
		if len(first) != 2 || len(got) != 3 {
			t.Fatalf("%d and %d result frames (%v, %v), want 2 and 3", len(first), len(got), first, got)
		}
		for _, frames := range [][][]wire.Result{first, got} {
			checkFrame(t, frames[0], 1, 0)
			checkFrame(t, frames[1], 2, 0, 1)
		}
		checkFrame(t, got[2], 3, 0, 1, 2)
	})
}

// creditTap counts the Credit frames a coordinator writes over conn, a
// direction retired with result acknowledgements. faultwire writes one
// whole frame at a time and never duplicates a Credit frame.
type creditTap struct {
	net.Conn
	credit *atomic.Uint64
}

func (c creditTap) Write(p []byte) (int, error) {
	if typ, _, err := wire.Frame(p); err == nil && typ == wire.TypeCredit {
		c.credit.Add(1)
	}
	return c.Conn.Write(p)
}

// TestRunFTDuplicatedResultFramesCountOnce: with every Result frame
// duplicated in transit, a durable FT run counts each pair once and logs
// it once, and it acknowledges none: no Credit frame goes to a worker.
func TestRunFTDuplicatedResultFramesCountOnce(t *testing.T) {
	// More records per worker than its 4 096-record credit window, so the
	// coordinator waits for record credit mid-stream, and the workers'
	// Credit frames move the marks while it does.
	recs := workload.NewGenerator(workload.UniformSmall(61)).Generate(10_000)
	const tau = 0.7
	k := 2
	sess := testSession(tau, "length", boundsFor(recs, tau, k))
	sess.Algorithm = local.Bundled
	sess.Window = window.Count{N: 1000}
	want := chaosBaseline(t, k, sess, recs)
	if len(want) == 0 {
		t.Fatal("degenerate: no pairs")
	}

	workers := make([]*ftWorker, k)
	for i := range workers {
		workers[i] = startFTWorker(t)
	}
	var credit atomic.Uint64
	dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", workers[task].addr)
		if err != nil {
			return nil, err
		}
		return faultwire.Wrap(creditTap{Conn: c, credit: &credit}, faultwire.Config{
			Seed:        0xD0B ^ uint64(task),
			DupPerMille: 1000, // every record and result frame, both ways
		}), nil
	}
	reg := obs.NewRegistry()
	state := t.TempDir()
	ft := fastFT(0xD0B1)
	ft.HeartbeatTimeout = 5 * time.Second
	ft.Registry = reg
	ft.Durable = &Durable{StateDir: state}
	sum, err := RunFT(context.Background(), dial, k, sess, recs, Opts{CollectPairs: true}, ft)
	if err != nil {
		t.Fatal(err)
	}
	requireParity(t, sum.Pairs, want, "duplicated frames")
	if sum.Results != uint64(len(want)) {
		t.Errorf("results = %d, want %d", sum.Results, len(want))
	}
	if sum.Reconnects != 0 {
		t.Fatalf("%d reconnects: the exact counts below assume one connection per worker", sum.Reconnects)
	}
	// Every pair arrived twice, so every pair was dropped as a duplicate once.
	if dups := gathered(reg, "coord_duplicate_results_total"); dups != float64(len(want)) {
		t.Errorf("%v duplicate pairs dropped, want %d", dups, len(want))
	}
	logRes, err := ReadResultsLog(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(logRes) != len(want) {
		t.Errorf("results log holds %d entries, want %d", len(logRes), len(want))
	}
	if c := credit.Load(); c != 0 {
		t.Errorf("the coordinator wrote %d Credit frames to its workers", c)
	}
}
