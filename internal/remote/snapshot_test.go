package remote

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

// idList collects the IDs a checkpoint loads, in order.
type idList []record.ID

func (l *idList) Load(r *record.Record) { *l = append(*l, r.ID) }

// snapshotIDs decodes each task's snapshot into the IDs it holds.
func snapshotIDs(t *testing.T, blobs [][]byte) []idList {
	t.Helper()
	out := make([]idList, len(blobs))
	for task, blob := range blobs {
		if _, _, err := checkpoint.Read(bytes.NewReader(blob), &out[task]); err != nil {
			t.Fatalf("task %d's snapshot: %v", task, err)
		}
	}
	return out
}

// joinerWindows steps each task's routed substream of recs, with its store
// flags, through a local joiner of the session, and returns the IDs each
// joiner holds that are live at the last record.
func joinerWindows(t *testing.T, sess Session, k int, recs []*record.Record) []idList {
	t.Helper()
	_, strat, err := sess.Plan(k)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	out := make([]idList, k)
	for task := range out {
		j := local.New(sess.Algorithm, local.Options{Params: sess.Params, Window: sess.Window})
		var dsts []int
		for _, r := range recs {
			if dsts = strat.Route(r, k, dsts[:0]); slices.Contains(dsts, task) {
				j.Step(r, strat.Stores(r, task, k), nil)
			}
		}
		j.Dump(func(r *record.Record) bool {
			if sess.Window.Live(r.ID, r.Time, last.ID, last.Time) {
				out[task] = append(out[task], r.ID)
			}
			return true
		})
	}
	return out
}

// TestSnapshotIsTheTaskWindow: each task's snapshot holds exactly the
// records a joiner holds after stepping the task's routed substream with
// its store flags, those live at the stream's last record. A run seeded
// with those snapshots ends with the window of the whole stream, and the
// two runs find what one uninterrupted run finds.
func TestSnapshotIsTheTaskWindow(t *testing.T) {
	recs := workload.NewGenerator(workload.AOLLike(31)).Generate(900)
	const (
		tau = 0.8
		k   = 3
		cut = 600
	)
	for _, strat := range []string{"length", "prefix", "broadcast"} {
		for _, win := range []window.Policy{window.Unbounded{}, window.Count{N: 150}} {
			t.Run(fmt.Sprintf("%s/%v", strat, win), func(t *testing.T) {
				sess := testSession(tau, strat, nil)
				if strat == "length" {
					sess.Bounds = boundsFor(recs, tau, k)
				}
				sess.Algorithm, sess.Window = local.Prefix, win
				sum1, err := RunWithOpts(context.Background(), asRW(startWorkers(t, k)), sess, recs[:cut], Opts{Snapshot: true})
				if err != nil {
					t.Fatal(err)
				}
				sum2, err := RunWithOpts(context.Background(), asRW(startWorkers(t, k)), sess, recs[cut:], Opts{Seed: sum1.Snapshots, Snapshot: true})
				if err != nil {
					t.Fatal(err)
				}
				full, err := Run(context.Background(), asRW(startWorkers(t, k)), sess, recs, false)
				if err != nil {
					t.Fatal(err)
				}
				if got := sum1.Results + sum2.Results; got != full.Results || got == 0 {
					t.Errorf("split results %d (= %d + %d), uninterrupted %d", got, sum1.Results, sum2.Results, full.Results)
				}
				var stored int
				for phase, run := range []struct {
					blobs [][]byte
					recs  []*record.Record
				}{{sum1.Snapshots, recs[:cut]}, {sum2.Snapshots, recs}} {
					got, want := snapshotIDs(t, run.blobs), joinerWindows(t, sess, k, run.recs)
					for task := range want {
						if !slices.Equal(got[task], want[task]) {
							t.Errorf("phase %d, task %d: snapshot holds %d records %v, the joiner %d %v",
								phase+1, task, len(got[task]), got[task], len(want[task]), want[task])
						}
						stored += len(want[task])
					}
				}
				if stored == 0 {
					t.Fatal("degenerate: every window is empty")
				}
			})
		}
	}
}

// TestSnapshotLargerThanAFrameSeedsAFreshFleet: a window whose checkpoint
// exceeds wire.MaxFrame is collected and seeded, since it travels only as
// records, and the split run finds what an uninterrupted one finds.
func TestSnapshotLargerThanAFrameSeedsAFreshFleet(t *testing.T) {
	// Tokens spread over the uint32 range take about 3.3 bytes each on the
	// wire, so 2 100 records of 2 600 tokens are about 17 MiB. Every other
	// record from 1 200 on repeats the one 1 200 before it but for one
	// token, so the second phase matches records of the seed.
	const (
		n     = 2400
		cut   = 2100
		width = 2600
	)
	rng := rand.New(rand.NewSource(7))
	recs := make([]*record.Record, n)
	for i := range recs {
		set := make(map[uint32]bool, width)
		if i >= 1200 && i%2 == 0 {
			for _, tok := range recs[i-1200].Tokens[1:] {
				set[tok] = true
			}
		}
		for len(set) < width {
			set[rng.Uint32()] = true
		}
		toks := make([]uint32, 0, width)
		for tok := range set {
			toks = append(toks, tok)
		}
		slices.Sort(toks)
		recs[i] = &record.Record{ID: record.ID(i), Time: int64(i), Tokens: toks}
	}
	sess := testSession(0.9, "broadcast", nil)
	sess.Algorithm = local.Prefix

	full, err := Run(context.Background(), asRW(startWorkers(t, 1)), sess, recs, false)
	if err != nil {
		t.Fatal(err)
	}
	sum1, err := RunWithOpts(context.Background(), asRW(startWorkers(t, 1)), sess, recs[:cut], Opts{Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if size := len(sum1.Snapshots[0]); size <= wire.MaxFrame {
		t.Fatalf("the snapshot is %d bytes, not past one frame's %d", size, wire.MaxFrame)
	}
	sum2, err := RunWithOpts(context.Background(), asRW(startWorkers(t, 1)), sess, recs[cut:], Opts{Seed: sum1.Snapshots})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Results == 0 {
		t.Fatal("degenerate: the second phase matched nothing")
	}
	if got := sum1.Results + sum2.Results; got != full.Results {
		t.Fatalf("split results %d (= %d + %d), uninterrupted %d", got, sum1.Results, sum2.Results, full.Results)
	}
}

// writeCounter is a connection that counts the bytes written to it and
// has nothing to read.
type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *writeCounter) Read([]byte) (int, error)    { return 0, io.EOF }

// TestSeedIsCheckedBeforeAnyWrite: a seed that is no checkpoint, or that
// does not end before the stream starts, fails RunWithOpts before it
// writes to any connection.
func TestSeedIsCheckedBeforeAnyWrite(t *testing.T) {
	rec := func(id record.ID, time int64) *record.Record {
		return &record.Record{ID: id, Time: time, Tokens: []uint32{1, 2}}
	}
	stream := []*record.Record{rec(5, 5), rec(6, 6)}
	blob := func(rs ...*record.Record) []byte {
		j := local.New(local.Naive, local.Options{})
		for _, r := range rs {
			j.Load(r)
		}
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, checkpoint.Cursor{}, j); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, seeds := range map[string][][]byte{
		"garbage":                 {[]byte("not a checkpoint")},
		"truncated":               {blob(rec(3, 3), rec(4, 4))[:20]},
		"id not below the stream": {blob(rec(4, 4), rec(5, 5))},
		"ids not rising":          {blob(rec(3, 3), rec(2, 3))},
		"time past the stream":    {blob(rec(3, 3), rec(4, 6))},
		"more seeds than workers": {blob(rec(3, 3)), blob(rec(4, 4))},
	} {
		t.Run(name, func(t *testing.T) {
			conn := &writeCounter{}
			_, err := RunWithOpts(context.Background(), []io.ReadWriter{conn}, testSession(0.8, "broadcast", nil), stream, Opts{Seed: seeds})
			if err == nil {
				t.Fatal("RunWithOpts accepted the seed")
			}
			if conn.n > 0 {
				t.Fatalf("RunWithOpts wrote %d bytes before it failed: %v", conn.n, err)
			}
		})
	}
	// The control: a valid seed gets as far as the Hello, and the run
	// fails only on the connection's empty read side.
	conn := &writeCounter{}
	_, err := RunWithOpts(context.Background(), []io.ReadWriter{conn}, testSession(0.8, "broadcast", nil), stream, Opts{Seed: [][]byte{blob(rec(3, 3), rec(4, 4))}})
	if err == nil || conn.n == 0 {
		t.Fatalf("a valid seed: %v after %d bytes written, want a read error after the Hello", err, conn.n)
	}
}
