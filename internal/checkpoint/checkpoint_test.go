package checkpoint

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/bundle"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/window"
	"repro/internal/workload"
)

func opts(tau float64, win window.Policy) local.Options {
	return local.Options{
		Params: filter.Params{Func: similarity.Jaccard, Threshold: tau},
		Window: win,
	}
}

// TestCheckpointRestoreContinuesIdentically is the recovery property: for
// every algorithm, splitting a stream at an arbitrary point, checkpointing,
// restoring into a fresh joiner, and continuing must produce exactly the
// same matches for the remainder as the uninterrupted run.
func TestCheckpointRestoreContinuesIdentically(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(21)).Generate(600)
	const cut = 350
	for _, alg := range []local.Algorithm{local.Naive, local.Prefix, local.Bundled} {
		for _, win := range []window.Policy{window.Unbounded{}, window.Count{N: 120}} {
			o := opts(0.7, win)

			// Uninterrupted run; collect matches after the cut.
			ref := local.New(alg, o)
			want := make(map[record.Pair]bool)
			for i, r := range recs {
				ref.Step(r, true, func(m local.Match) {
					if i >= cut {
						want[record.NewPair(r.ID, m.Rec.ID, 0)] = true
					}
				})
			}

			// Run to the cut, checkpoint, restore, continue.
			j1 := local.New(alg, o)
			for _, r := range recs[:cut] {
				j1.Step(r, true, func(local.Match) {})
			}
			var buf bytes.Buffer
			cur := Cursor{NextID: cut, NextTime: cut}
			if err := Write(&buf, cur, j1); err != nil {
				t.Fatalf("%v/%v: write: %v", alg, win, err)
			}
			j2 := local.New(alg, o)
			gotCur, n, err := Read(&buf, j2)
			if err != nil {
				t.Fatalf("%v/%v: read: %v", alg, win, err)
			}
			if gotCur != cur {
				t.Fatalf("%v/%v: cursor %+v want %+v", alg, win, gotCur, cur)
			}
			if n != j1.Size() {
				t.Fatalf("%v/%v: restored %d records, source held %d", alg, win, n, j1.Size())
			}
			got := make(map[record.Pair]bool)
			for _, r := range recs[cut:] {
				j2.Step(r, true, func(m local.Match) {
					got[record.NewPair(r.ID, m.Rec.ID, 0)] = true
				})
			}
			if len(got) != len(want) {
				t.Fatalf("%v/%v: got %d matches after restore, want %d", alg, win, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("%v/%v: missing %v", alg, win, p)
				}
			}
		}
	}
}

// TestCheckpointBundleGroupedRoundTrip exercises restore with explicit
// bundle-grouping configs: restore goes through Load, which must rebuild
// the bundle groupings from scratch under the same Config, including when
// a bounded window has already evicted part of the stream.
func TestCheckpointBundleGroupedRoundTrip(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(47)).Generate(500)
	const cut = 300
	configs := []bundle.Config{
		{GroupThreshold: 0.9, MaxMembers: 4},
		{GroupThreshold: 0.85, MaxMembers: 8, OneByOneVerify: true},
	}
	for _, cfg := range configs {
		for _, win := range []window.Policy{window.Unbounded{}, window.Count{N: 96}} {
			o := opts(0.7, win)
			o.Bundle = cfg

			ref := local.New(local.Bundled, o)
			want := make(map[record.Pair]bool)
			for i, r := range recs {
				ref.Step(r, true, func(m local.Match) {
					if i >= cut {
						want[record.NewPair(r.ID, m.Rec.ID, 0)] = true
					}
				})
			}

			j1 := local.New(local.Bundled, o)
			for _, r := range recs[:cut] {
				j1.Step(r, true, func(local.Match) {})
			}
			var buf bytes.Buffer
			if err := Write(&buf, Cursor{NextID: cut, NextTime: cut}, j1); err != nil {
				t.Fatalf("%+v/%v: write: %v", cfg, win, err)
			}
			j2 := local.New(local.Bundled, o)
			if _, n, err := Read(&buf, j2); err != nil {
				t.Fatalf("%+v/%v: read: %v", cfg, win, err)
			} else if n != j1.Size() {
				t.Fatalf("%+v/%v: restored %d records, source held %d", cfg, win, n, j1.Size())
			}
			got := make(map[record.Pair]bool)
			for _, r := range recs[cut:] {
				j2.Step(r, true, func(m local.Match) {
					got[record.NewPair(r.ID, m.Rec.ID, 0)] = true
				})
			}
			if len(got) != len(want) {
				t.Fatalf("%+v/%v: got %d matches after restore, want %d", cfg, win, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("%+v/%v: missing %v", cfg, win, p)
				}
			}
		}
	}
}

// TestCursorContinuationExact pins the contract the worker resume path
// depends on: the restored cursor alone is enough to restart ID and tick
// assignment. The tail after restore is re-stamped purely from the cursor
// (NextID+i, NextTime+i) and must reproduce the uninterrupted run, which
// only holds if the cursor round-trips exactly.
func TestCursorContinuationExact(t *testing.T) {
	recs := workload.NewGenerator(workload.UniformSmall(61)).Generate(400)
	const cut = 250
	o := opts(0.7, window.Count{N: 80})

	ref := local.New(local.Prefix, o)
	want := make(map[record.Pair]bool)
	for i, r := range recs {
		ref.Step(r, true, func(m local.Match) {
			if i >= cut {
				want[record.NewPair(r.ID, m.Rec.ID, 0)] = true
			}
		})
	}

	j1 := local.New(local.Prefix, o)
	for _, r := range recs[:cut] {
		j1.Step(r, true, func(local.Match) {})
	}
	var buf bytes.Buffer
	saved := Cursor{NextID: cut, NextTime: cut}
	if err := Write(&buf, saved, j1); err != nil {
		t.Fatal(err)
	}
	j2 := local.New(local.Prefix, o)
	cur, _, err := Read(&buf, j2)
	if err != nil {
		t.Fatal(err)
	}
	if cur != saved {
		t.Fatalf("cursor round trip: got %+v, want %+v", cur, saved)
	}

	// Rebuild the tail from the cursor alone: same token sets, but IDs and
	// ticks assigned from the restored position.
	got := make(map[record.Pair]bool)
	for i, r := range recs[cut:] {
		cont := &record.Record{
			ID:     record.ID(cur.NextID) + record.ID(i),
			Time:   cur.NextTime + int64(i),
			Tokens: r.Tokens,
		}
		if cont.ID != r.ID || cont.Time != r.Time {
			t.Fatalf("cursor-derived stamp (%d, %d) diverges from stream (%d, %d)",
				cont.ID, cont.Time, r.ID, r.Time)
		}
		j2.Step(cont, true, func(m local.Match) {
			got[record.NewPair(cont.ID, m.Rec.ID, 0)] = true
		})
	}
	if len(got) != len(want) {
		t.Fatalf("cursor-continued run: got %d matches, want %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("cursor-continued run missing %v", p)
		}
	}
}

func TestCheckpointOnlyLiveRecords(t *testing.T) {
	// With a small window, the checkpoint must contain only the live tail.
	o := opts(0.8, window.Count{N: 10})
	j := local.New(local.Prefix, o)
	recs := workload.NewGenerator(workload.UniformSmall(5)).Generate(200)
	for _, r := range recs {
		j.Step(r, true, func(local.Match) {})
	}
	var buf bytes.Buffer
	if err := Write(&buf, Cursor{NextID: 200, NextTime: 200}, j); err != nil {
		t.Fatal(err)
	}
	j2 := local.New(local.Prefix, o)
	_, n, err := Read(&buf, j2)
	if err != nil {
		t.Fatal(err)
	}
	if n > 11 {
		t.Fatalf("checkpoint carried %d records for a 10-record window", n)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	j := local.New(local.Naive, opts(0.8, nil))
	if _, _, err := Read(strings.NewReader("not a checkpoint"), j); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := Read(strings.NewReader(""), j); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated: magic + cursor but no frames.
	var buf bytes.Buffer
	if err := Write(&buf, Cursor{}, local.New(local.Naive, opts(0.8, nil))); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, _, err := Read(bytes.NewReader(raw[:len(raw)-1]), j); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestEmptyCheckpointRoundTrip(t *testing.T) {
	j := local.New(local.Bundled, opts(0.8, nil))
	var buf bytes.Buffer
	if err := Write(&buf, Cursor{NextID: 7, NextTime: 9}, j); err != nil {
		t.Fatal(err)
	}
	j2 := local.New(local.Bundled, opts(0.8, nil))
	cur, n, err := Read(&buf, j2)
	if err != nil || n != 0 {
		t.Fatalf("empty round trip: %v n=%d", err, n)
	}
	if cur.NextID != 7 || cur.NextTime != 9 {
		t.Fatalf("cursor: %+v", cur)
	}
}

func TestWriteFailurePropagates(t *testing.T) {
	j := local.New(local.Naive, opts(0.8, nil))
	j.Load(&record.Record{ID: 0, Tokens: []uint32{1, 2, 3}})
	// A writer that fails immediately must surface an error from Write.
	if err := Write(failWriter{}, Cursor{}, j); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errFail }

var errFail = errors.New("synthetic write failure")

func TestReadIntoWrongFrameFails(t *testing.T) {
	// A checkpoint stream carrying a non-record frame must be rejected.
	var buf bytes.Buffer
	buf.Write([]byte("SSJCKPT\x01"))
	buf.WriteByte(0) // cursor id = 0
	buf.WriteByte(0) // cursor time = 0
	// A Result frame where a Record/EOF is expected.
	buf.WriteByte(3)  // wire.TypeResult
	buf.WriteByte(10) // payload length
	buf.Write(make([]byte, 10))
	j := local.New(local.Naive, opts(0.8, nil))
	if _, _, err := Read(&buf, j); err == nil {
		t.Fatal("wrong frame type accepted")
	}
}

func TestBiCheckpointRoundTrip(t *testing.T) {
	o := opts(0.7, window.Count{N: 100})
	src := local.NewBi(local.Prefix, o)
	recs := workload.NewGenerator(workload.UniformSmall(33)).Generate(200)
	for i, r := range recs {
		if i%2 == 0 {
			src.StepSide(r, false, true, func(local.Match) {})
		} else {
			src.StepSide(r, true, true, func(local.Match) {})
		}
	}
	var buf bytes.Buffer
	cur := Cursor{NextID: 200, NextTime: 200}
	if err := WriteBi(&buf, cur, src); err != nil {
		t.Fatal(err)
	}
	dst := local.NewBi(local.Prefix, o)
	gotCur, n, err := ReadBi(&buf, dst)
	if err != nil {
		t.Fatal(err)
	}
	if gotCur != cur {
		t.Fatalf("cursor: %+v", gotCur)
	}
	if n != src.SizeLeft()+src.SizeRight() {
		t.Fatalf("restored %d records, source held %d", n, src.SizeLeft()+src.SizeRight())
	}
	if dst.SizeLeft() != src.SizeLeft() || dst.SizeRight() != src.SizeRight() {
		t.Fatalf("sizes: %d/%d vs %d/%d",
			dst.SizeLeft(), dst.SizeRight(), src.SizeLeft(), src.SizeRight())
	}
	// Continued probes must agree.
	probe := recs[len(recs)-1]
	probe2 := &record.Record{ID: probe.ID + 1, Time: probe.Time + 1, Tokens: probe.Tokens}
	var a, b int
	src.StepSide(probe2, false, false, func(local.Match) { a++ })
	dst.StepSide(probe2, false, false, func(local.Match) { b++ })
	if a != b {
		t.Fatalf("restored bi joiner diverges: %d vs %d", a, b)
	}
}

func TestBiCheckpointRejectsGarbage(t *testing.T) {
	dst := local.NewBi(local.Naive, opts(0.8, nil))
	if _, _, err := ReadBi(strings.NewReader("nope"), dst); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := ReadBi(strings.NewReader(""), dst); err == nil {
		t.Fatal("empty accepted")
	}
	// Wrong frame type mid-stream.
	var buf bytes.Buffer
	buf.Write([]byte("SSJCKPT\x01"))
	buf.WriteByte(0)
	buf.WriteByte(0)
	buf.WriteByte(3) // TypeResult
	buf.WriteByte(2)
	buf.Write([]byte{0, 0})
	if _, _, err := ReadBi(&buf, dst); err == nil {
		t.Fatal("wrong frame accepted")
	}
}

func TestBiWriteFailurePropagates(t *testing.T) {
	bi := local.NewBi(local.Naive, opts(0.8, nil))
	bi.StepSide(&record.Record{ID: 0, Tokens: []uint32{1, 2, 3}}, false, true, func(local.Match) {})
	if err := WriteBi(failWriter{}, Cursor{}, bi); err == nil {
		t.Fatal("write error swallowed")
	}
}
