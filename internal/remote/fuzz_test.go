package remote

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/local"
	"repro/internal/record"
	"repro/internal/window"
	"repro/internal/wire"
)

// FuzzHelloSession: arbitrary Hello payloads go through ReadHello and
// sessionFromHello, and a Hello the worker accepts builds its joiner and
// routes, stores, steps and arbitrates a few records without a panic.
func FuzzHelloSession(f *testing.F) {
	seeds := []Session{
		testSession(0.8, "length", []int{3, 9}),
		testSession(0.7, "prefix", nil),
		testSession(0.9, "broadcast", nil),
	}
	seeds[1].Window = window.Count{N: 2}
	seeds[2].Algorithm = local.Bundled
	for i, s := range seeds {
		h, err := s.hello(1, 2)
		if err != nil {
			f.Fatal(err)
		}
		h.CountOnly = i != 1 // the bit set and clear
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		if err := w.WriteHello(h); err != nil {
			f.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		_, payload, err := wire.Frame(buf.Bytes())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	recs := []*record.Record{
		{ID: 0, Time: 0, Tokens: []uint32{1}},
		{ID: 1, Time: 1, Tokens: []uint32{1, 2, 3}},
		{ID: 2, Time: 5, Tokens: []uint32{1, 2, 3, 4}},
		{ID: 3, Time: 6, Tokens: []uint32{0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
		{ID: 4, Time: 6, Tokens: []uint32{1, 2, 3, 4}},
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		frame := append(binary.AppendUvarint([]byte{wire.TypeHello}, uint64(len(payload))), payload...)
		rd := wire.NewReader(bytes.NewReader(frame))
		if _, err := rd.Next(); err != nil {
			return
		}
		h, err := rd.ReadHello()
		if err != nil {
			return
		}
		sess, strat, err := sessionFromHello(h)
		if err != nil {
			return
		}
		opts := local.Options{Params: sess.Params, Window: sess.Window, Bundle: sess.Bundle}
		bi := local.NewBi(sess.Algorithm, opts)
		j := local.New(sess.Algorithm, opts)
		task, k := h.Task, h.Workers
		var dsts []int
		for i, r := range recs {
			// A coordinator routes over its own connections; broadcast
			// lists every one of them, so a huge k is not routed here.
			if k <= 64 {
				for _, d := range strat.Route(r, k, dsts[:0]) {
					if d < 0 || d >= k {
						t.Fatalf("record %d routed to worker %d of %d", r.ID, d, k)
					}
				}
			}
			emit := func(m local.Match) { strat.Emits(r, m.Rec, task, k) }
			store := strat.Stores(r, task, k)
			j.Step(r, store, emit)
			bi.StepSide(r, i%2 == 1, store, emit)
		}
	})
}
