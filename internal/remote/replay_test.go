package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

var errCut = errors.New("cut")

// cutTap sits on the coordinator side of one connection and counts the
// load and probe Record frames the coordinator writes. When cut, called
// before each Record frame with the counts so far, returns true, it closes
// the connection instead of writing the frame: a kill at that point.
type cutTap struct {
	io.ReadWriteCloser
	cut func(load bool, loads, probes int) bool

	mu            sync.Mutex
	pending       []byte // written bytes not yet split into frames
	loads, probes int
	severed       bool
}

func (c *cutTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed {
		return 0, errCut
	}
	c.pending = append(c.pending, p...)
	pass := 0 // the bytes of whole frames to pass on
	for size := frameLen(c.pending); size > 0; size = frameLen(c.pending[pass:]) {
		if typ, body, _ := wire.Frame(c.pending[pass : pass+size]); typ == wire.TypeRecord {
			rt, err := wire.DecodeRecord(body)
			if err != nil {
				return 0, err
			}
			if c.cut != nil && c.cut(rt.Load, c.loads, c.probes) {
				c.severed = true
				c.ReadWriteCloser.Write(c.pending[:pass]) //nolint:errcheck
				c.Close()
				return 0, errCut
			}
			if rt.Load {
				c.loads++
			} else {
				c.probes++
			}
		}
		pass += size
	}
	if _, err := c.ReadWriteCloser.Write(c.pending[:pass]); err != nil {
		return 0, err
	}
	c.pending = c.pending[pass:]
	return len(p), nil
}

// counts returns the Record frames written so far, and whether the tap
// cut the connection.
func (c *cutTap) counts() (loads, probes int, severed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loads, c.probes, c.severed
}

// frameLen is the size of the frame b starts with, 0 when b does not hold
// all of it.
func frameLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	n, k := binary.Uvarint(b[1:])
	if k <= 0 || uint64(len(b)-1-k) < n {
		return 0
	}
	return 1 + k + int(n)
}

// killPoint breaks task 0's connections.
type killPoint struct {
	name string
	// cut is the tap's kill rule for attempt n, nil for none.
	cut func(n int64) func(load bool, loads, probes int) bool
	// tail, when positive, drops attempt 1's inbound frames after its
	// tail-th Result or Count frame up to the next Credit, and that
	// Credit, and then cuts the connection.
	tail int
}

// afterProbes kills a connection before its n-th probe record.
func afterProbes(n int) func(bool, int, int) bool {
	return func(load bool, _, probes int) bool { return !load && probes == n }
}

// TestKillResumeMatrix kills task 0's connection at each of three points,
// under a count, a time and an unbounded window, collecting and counting,
// in a self-join and in a bi session (through runFT with a retry policy):
//
//   - result-credit: between Result or Count frames and the worker's next
//     Credit, whose mark the coordinator never reads;
//   - load: during the load phase of the first recovery;
//   - second-kill: a second kill once the first recovery has loaded its
//     window, before it has probed back to where the first connection was.
//
// Each run's match multiset, or its count, must equal a fault-free run's.
// Each recovery sends a task its stored records live at its mark, and
// re-sends at most 2 × workerRecordWindow more, which RunSummary's
// ReplayedRecords must respect; under a bounded window the first
// connection has sent more than that bound, so a replay from the start of
// the stream would break it.
func TestKillResumeMatrix(t *testing.T) {
	const (
		n      = 2400
		k      = 2
		tau    = 0.7
		credit = 16 // the workers' record window
	)
	setRecordWindow(t, credit)
	recs := workload.NewGenerator(workload.UniformSmall(29)).Generate(n)
	for _, r := range recs {
		r.Time = int64(r.ID) / 3 // ties, so a time window is not a count window
	}
	kills := []killPoint{
		{name: "result-credit", tail: 40},
		{name: "load", cut: func(a int64) func(bool, int, int) bool {
			switch a {
			case 1:
				return afterProbes(400)
			case 2:
				return func(load bool, loads, _ int) bool { return load && loads == 3 }
			}
			return nil
		}},
		{name: "second-kill", cut: func(a int64) func(bool, int, int) bool {
			switch a {
			case 1:
				return afterProbes(400)
			case 2:
				return afterProbes(2)
			}
			return nil
		}},
	}
	for _, win := range []struct {
		name string
		win  window.Policy
	}{{"count", window.Count{N: 150}}, {"time", window.Time{Span: 50}}, {"unbounded", window.Unbounded{}}} {
		for _, bi := range []bool{false, true} {
			sess := testSession(tau, "length", boundsFor(recs, tau, k))
			sess.Window, sess.Bi = win.win, bi
			var right []bool
			side := "self"
			if bi {
				side, right = "bi", make([]bool, n)
				for i := range right {
					right[i] = i%3 == 1
				}
			}
			workers := make([]*ftWorker, k)
			for i := range workers {
				workers[i] = startFTWorker(t)
			}
			tcp := tcpDialer(func(task int) string { return workers[task].addr })
			clean, err := runFT(context.Background(), tcp, k, sess, recs, right, Opts{CollectPairs: true}, fastFT(0x5EED))
			if err != nil {
				t.Fatal(err)
			}
			want := pairSet(clean.Pairs)
			if len(want) == 0 {
				t.Fatalf("%s/%s: degenerate stream, no results", win.name, side)
			}
			_, strat, err := sess.Plan(k)
			if err != nil {
				t.Fatal(err)
			}
			// liveStored counts task's records before recs[p] that it
			// stores and that are live at recs[p].
			liveStored := func(task, p int) int {
				at, c := recs[p], 0
				for _, r := range recs[:p] {
					if win.win.Live(r.ID, r.Time, at.ID, at.Time) && slices.Contains(strat.Route(r, k, nil), task) && strat.Stores(r, task, k) {
						c++
					}
				}
				return c
			}
			for _, kill := range kills {
				for _, collect := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s/%s/collect=%v", win.name, side, kill.name, collect)
					t.Run(name, func(t *testing.T) {
						var (
							attempts atomic.Int64
							mu       sync.Mutex
							taps     []*cutTap
							tail     *tailDrop
						)
						dial := func(ctx context.Context, task int) (io.ReadWriteCloser, error) {
							c, err := tcp(ctx, task)
							if err != nil || task != 0 {
								return c, err
							}
							a := attempts.Add(1)
							tap := &cutTap{ReadWriteCloser: c}
							if kill.cut != nil {
								tap.cut = kill.cut(a)
							}
							mu.Lock()
							taps = append(taps, tap)
							mu.Unlock()
							if kill.tail > 0 && a == 1 {
								tail = &tailDrop{ReadWriteCloser: tap, k: kill.tail, atCredit: true}
								return tail, nil
							}
							return tap, nil
						}
						journal := obs.NewJournal(0)
						sum, err := runFT(context.Background(), dial, k, sess, recs, right,
							Opts{CollectPairs: collect, Journal: journal}, fastFT(0x3A7))
						if err != nil {
							t.Fatal(err)
						}
						if collect {
							requireParity(t, sum.Pairs, want, name)
						} else if sum.Results != clean.Results {
							t.Errorf("%d results, want %d", sum.Results, clean.Results)
						}

						// The kill landed where it was meant to.
						mu.Lock()
						defer mu.Unlock()
						switch kill.name {
						case "result-credit":
							if tail == nil || !tail.marked {
								t.Fatalf("no Credit after the %d-th result frame was dropped: %+v", kill.tail, tail)
							}
						case "load", "second-kill":
							if len(taps) < 3 {
								t.Fatalf("%d connections to task 0, want 3", len(taps))
							}
							loads, probes, severed := taps[1].counts()
							if !severed || kill.name == "load" && (loads != 3 || probes != 0) || kill.name == "second-kill" && probes != 2 {
								t.Fatalf("the first recovery wrote %d loads and %d probes, severed %v", loads, probes, severed)
							}
						}

						// The replay bound, from the coordinator's replay events.
						var bound, first, last int
						first = -1
						for _, ev := range journal.Snapshot().Events {
							var task, pos, p int
							var from uint64
							if ev.Type != "replay" {
								continue
							}
							if _, err := fmt.Sscanf(ev.Msg, "worker %d: loading the window from record %d, probing from record %d, results from %d", &task, &pos, &p, &from); err != nil {
								t.Fatalf("replay event %q: %v", ev.Msg, err)
							}
							live := liveStored(task, p)
							bound += live
							if task == 0 {
								if first < 0 {
									first = live
								}
								last = live
							}
						}
						if first < 0 {
							t.Fatal("task 0's mark never moved: no window was replayed")
						}
						bound += 2 * credit * int(sum.Reconnects)
						if int(sum.ReplayedRecords) > bound {
							t.Errorf("%d records replayed over %d reconnects, bound %d", sum.ReplayedRecords, sum.Reconnects, bound)
						}
						if loads, _, _ := taps[len(taps)-1].counts(); loads != last {
							t.Errorf("task 0's last connection loaded %d records, %d stored ones were live at its mark", loads, last)
						}
						if _, probes, _ := taps[0].counts(); win.name != "unbounded" && probes <= first+2*credit {
							t.Errorf("the first connection sent %d records, within the bound %d of its replay: a replay from the start would meet it too", probes, first+2*credit)
						}
						t.Logf("reconnects=%d replayed=%d bound=%d", sum.Reconnects, sum.ReplayedRecords, bound)
					})
				}
			}
		}
	}
}

// TestMarkNeverMovesBackwards: a Credit naming a probe below the task's
// mark, or none (0, a worker still loading), leaves the mark where it is,
// so the next reconnect probes from the same record. Three connections:
// the first marks record 3, the second names record 1 and then none, and
// the third must be replayed from record 3.
func TestMarkNeverMovesBackwards(t *testing.T) {
	checkNoLeaks(t)
	var attempts atomic.Int64
	dial := func(context.Context, int) (io.ReadWriteCloser, error) {
		switch attempts.Add(1) {
		case 1:
			return fakeWorker(func(w *wire.Writer) { w.WriteCredit(4, 3) }, true), nil //nolint:errcheck
		case 2:
			return fakeWorker(func(w *wire.Writer) {
				w.WriteCredit(4, 1) //nolint:errcheck
				w.WriteCredit(4, 0) //nolint:errcheck
			}, true), nil
		}
		return countWorker(func(*wire.Writer) {}, false), nil
	}
	recs := make([]*record.Record, 5)
	for i := range recs {
		recs[i] = &record.Record{ID: record.ID(i), Time: int64(i), Tokens: []uint32{1, 2}}
	}
	journal := obs.NewJournal(0)
	ft := fastFT(0xBAC)
	ft.Retry.MaxAttempts = 2
	if _, err := RunFT(context.Background(), dial, 1, testSession(0.7, "broadcast", nil), recs, Opts{Journal: journal}, ft); err != nil {
		t.Fatal(err)
	}
	var from []int
	for _, ev := range journal.Snapshot().Events {
		var task, pos, p int
		var results uint64
		if ev.Type == "replay" {
			if _, err := fmt.Sscanf(ev.Msg, "worker %d: loading the window from record %d, probing from record %d, results from %d", &task, &pos, &p, &results); err != nil {
				t.Fatal(err)
			}
			from = append(from, p)
		}
	}
	if !slices.Equal(from, []int{3, 3}) {
		t.Errorf("the reconnects probed from records %v, want [3 3]", from)
	}
}
