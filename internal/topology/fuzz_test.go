package topology

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/local"
	"repro/internal/window"
)

// FuzzTopologyVsBruteForce is the engine half of the whole-system oracle:
// a drawn stream through Run under a drawn configuration — τ, window
// (none, count or time), strategy, algorithm, workers, dispatchers and
// batch size — must emit exactly the brute-force pair multiset, and the
// same configuration with CollectPairs clear must count as many. The stream
// is UniformSmall with a quarter of its records copying an earlier one, so
// every τ finds pairs, and with times that repeat and skip, so a time
// window differs from a count window.
func FuzzTopologyVsBruteForce(f *testing.F) {
	f.Add(int64(1), uint16(299), uint8(1), uint8(0), uint8(0), uint8(2), uint8(3), uint8(3), uint8(2))
	f.Add(int64(7), uint16(199), uint8(3), uint8(1), uint8(1), uint8(1), uint8(2), uint8(1), uint8(1))
	f.Add(int64(42), uint16(249), uint8(0), uint8(2), uint8(2), uint8(0), uint8(3), uint8(2), uint8(0))
	f.Add(int64(3), uint16(119), uint8(4), uint8(2), uint8(0), uint8(2), uint8(1), uint8(3), uint8(1))
	algs := []local.Algorithm{local.Naive, local.Prefix, local.Bundled}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, tau, win, strat, alg, k, d, batch uint8) {
		recs := genStream(1+int(n)%300, seed)
		rng := rand.New(rand.NewSource(seed))
		var now int64
		for i, r := range recs {
			if i > 0 && rng.Intn(4) == 0 {
				r.Tokens = append(r.Tokens[:0:0], recs[rng.Intn(i)].Tokens...)
			}
			now += int64(rng.Intn(3))
			r.Time = now
		}
		p := params(0.5 + float64(tau%5)*0.1)
		var w window.Policy
		switch win % 3 {
		case 1:
			w = window.Count{N: 1 + int64(n)%64}
		case 2:
			w = window.Time{Span: 1 + int64(n)%48}
		}
		workers := 1 + int(k)%4
		cfg := Config{
			Workers:      workers,
			Dispatchers:  1 + int(d)%4,
			Strategy:     strategies(p, recs, workers)[strat%3],
			Algorithm:    algs[alg%3],
			Params:       p,
			Window:       w,
			BatchSize:    []int{1, 7, 64}[batch%3],
			CollectPairs: true,
		}
		res, err := Run(recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("n=%d τ=%.1f window=%v %s/%s k=%d d=%d batch=%d", len(recs), p.Threshold, w,
			cfg.Strategy.Name(), cfg.Algorithm, workers, cfg.Dispatchers, cfg.BatchSize)
		want := bruteCount(recs, p, w)
		checkPairs(t, label, res.Pairs, want)
		// The same run keeping no pairs: under length and broadcast routing
		// its workers step with a nil emit and only count.
		cfg.CollectPairs = false
		counted, err := Run(recs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if counted.Results != uint64(len(want)) || len(counted.Pairs) != 0 {
			t.Fatalf("%s, counting: %d results and %d pairs, brute force finds %d", label, counted.Results, len(counted.Pairs), len(want))
		}
	})
}
