package main

import (
	"fmt"
	"testing"

	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/remote"
	"repro/internal/similarity"
	"repro/internal/window"
)

// handBuiltSession is the session the CLI built for -remote at τ 0.8 before
// it planned through ssjoin.DistributedConfig: the flags parsed by the
// internal packages' parsers and a load-aware length plan fitted to the
// first partition.SampleSize records.
func handBuiltSession(t *testing.T, recs []*record.Record, fn, alg, dist string, win int64, k int) remote.Session {
	t.Helper()
	f, err := similarity.ParseFunc(fn)
	if err != nil {
		t.Fatal(err)
	}
	a, err := local.ParseAlgorithm(alg)
	if err != nil {
		t.Fatal(err)
	}
	s := remote.Session{Params: filter.Params{Func: f, Threshold: 0.8}, Algorithm: a, Strategy: dist}
	if win != 0 {
		s.Window = window.Count{N: win}
	}
	if dist == "length" {
		s.Bounds = partition.Fit(s.Params, recs[:min(len(recs), partition.SampleSize)], k).Bounds
	}
	return s
}

// TestRemotePlanMatchesTheHandBuiltSession: for every -func, -alg, -dist
// and -window, the session the CLI plans for a -remote run hashes
// (Session.PlanHash) as the hand-built one did, so every Hello and every
// state directory an earlier release wrote stays the same run; a flag set
// the hand-built session refused is refused too. The default flag set is
// pinned to the hash its hand-built session had.
func TestRemotePlanMatchesTheHandBuiltSession(t *testing.T) {
	const k = 2
	recs, err := loadRecords("", "uniform", 10000, 42)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]uint32, len(recs))
	for i, r := range recs {
		sets[i] = r.Tokens
	}
	plan := func(fn, alg, dist string, win int64) (remote.Session, error) {
		cfg, err := joinConfig(0.8, fn, alg, dist, "load-aware", win)
		if err != nil {
			return remote.Session{}, err
		}
		cfg.Workers = k
		return cfg.Session(sets)
	}
	for _, fn := range []string{"jaccard", "cosine", "dice", "overlap"} {
		for _, alg := range []string{"bundle", "prefix", "naive"} {
			for _, dist := range []string{"length", "prefix", "broadcast"} {
				for _, win := range []int64{0, 500, -1} {
					label := fmt.Sprintf("-func %s -alg %s -dist %s -window %d", fn, alg, dist, win)
					want := handBuiltSession(t, recs, fn, alg, dist, win, k).PlanHash(k)
					sess, err := plan(fn, alg, dist, win)
					switch {
					case want == 0 && err == nil:
						t.Errorf("%s: planned, but the hand-built session was refused", label)
					case want != 0 && err != nil:
						t.Errorf("%s: %v", label, err)
					case want != 0 && sess.PlanHash(k) != want:
						t.Errorf("%s: plan hash %#x, hand-built %#x", label, sess.PlanHash(k), want)
					}
				}
			}
		}
	}
	sess, err := plan("jaccard", "bundle", "length", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The Hello's protocol version is in the hash: the hand-built session
	// hashed 0x1ad4c63e927a5641 at version 11 and 0x70ef78cac0c8f5da at 12.
	if got := sess.PlanHash(k); got != 0xf98c39ed30616997 {
		t.Fatalf("default flags: plan hash %#x, bounds %v; the hand-built session hashed 0xf98c39ed30616997 with bounds [16 24] at protocol version 13", got, sess.Bounds)
	}
}
