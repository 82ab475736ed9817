package ssjoin

import (
	"math/rand"
	"testing"
)

func randomSets(n, universe int, seed int64) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]uint32, n)
	var protos [][]uint32
	for i := range sets {
		var set []uint32
		if len(protos) > 0 && rng.Float64() < 0.4 {
			p := protos[rng.Intn(len(protos))]
			set = append([]uint32{}, p...)
			if len(set) > 1 {
				set[rng.Intn(len(set))] = uint32(rng.Intn(universe))
			}
		} else {
			m := 3 + rng.Intn(10)
			set = make([]uint32, m)
			for j := range set {
				set[j] = uint32(rng.Intn(universe))
			}
			protos = append(protos, set)
		}
		sets[i] = set
	}
	return sets
}

func TestRunDistributedValidation(t *testing.T) {
	sets := randomSets(10, 50, 1)
	if _, err := RunDistributed(sets, DistributedConfig{
		Config: Config{Threshold: 0.8}, Workers: 0,
	}); err == nil {
		t.Fatal("expected worker validation error")
	}
	if _, err := RunDistributed(sets, DistributedConfig{
		Config: Config{}, Workers: 2,
	}); err == nil {
		t.Fatal("expected threshold validation error")
	}
	if _, err := RunDistributed(sets, DistributedConfig{
		Config: Config{Threshold: 0.8}, Workers: 2, Distribution: Distribution(9),
	}); err == nil {
		t.Fatal("expected distribution validation error")
	}
	if _, err := RunDistributed(sets, DistributedConfig{
		Config: Config{Threshold: 0.8}, Workers: 2, Partitioner: Partitioner(9),
	}); err == nil {
		t.Fatal("expected partitioner validation error")
	}
	// A negative sample would plan the length partition from an empty
	// histogram, leaving every record longer than one token to one worker.
	if _, err := RunDistributed(sets, DistributedConfig{
		Config: Config{Threshold: 0.8}, Workers: 2, SampleSize: -1,
	}); err == nil {
		t.Fatal("expected sample size validation error")
	}
}

// TestDistributedMatchesSingleNode: all distributions and partitioners must
// produce the single-node result set.
func TestDistributedMatchesSingleNode(t *testing.T) {
	sets := randomSets(400, 60, 7)
	single, err := NewStream(Config{Threshold: 0.7, Algorithm: Naive})
	if err != nil {
		t.Fatal(err)
	}
	type pr struct{ a, b uint64 }
	want := make(map[pr]bool)
	for _, set := range sets {
		id, ms := single.Add(set)
		for _, m := range ms {
			want[pr{m.ID, id}] = true
		}
	}
	for _, dist := range []Distribution{LengthBased, PrefixBased, BroadcastBased} {
		for _, part := range []Partitioner{LoadAware, EvenLength, EvenFrequency} {
			if dist != LengthBased && part != LoadAware {
				continue // partitioner only matters for LengthBased
			}
			res, err := RunDistributed(sets, DistributedConfig{
				Config:       Config{Threshold: 0.7},
				Workers:      4,
				Distribution: dist,
				Partitioner:  part,
				CollectPairs: true,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", dist, part, err)
			}
			got := make(map[pr]bool)
			for _, p := range res.Pairs {
				key := pr{p.A, p.B}
				if got[key] {
					t.Fatalf("%v/%v: duplicate %v", dist, part, key)
				}
				got[key] = true
			}
			if len(got) != len(want) {
				t.Fatalf("%v/%v: got %d pairs want %d", dist, part, len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("%v/%v: missing %v", dist, part, p)
				}
			}
		}
	}
}

func TestDistributedSummaryFields(t *testing.T) {
	sets := randomSets(500, 100, 13)
	res, err := RunDistributed(sets, DistributedConfig{
		Config:  Config{Threshold: 0.7},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 500 || res.Elapsed <= 0 || res.ThroughputPerSec <= 0 {
		t.Fatalf("basic fields: %+v", res)
	}
	if res.StoredCopies != 500 {
		t.Fatalf("length-based must not replicate: %d", res.StoredCopies)
	}
	if res.CommTuples == 0 || res.CommBytes == 0 {
		t.Fatal("communication not counted")
	}
	if res.LoadImbalance < 1 {
		t.Fatalf("imbalance below 1: %v", res.LoadImbalance)
	}
	if res.LatencyMeanNs <= 0 || res.LatencyP99Ns < res.LatencyMeanNs {
		t.Fatalf("latency fields: mean=%d p99=%d", res.LatencyMeanNs, res.LatencyP99Ns)
	}
	if res.Pairs != nil {
		t.Fatal("pairs collected without CollectPairs")
	}
}

func TestDistributedWithWindowAndBundle(t *testing.T) {
	sets := randomSets(300, 50, 19)
	res, err := RunDistributed(sets, DistributedConfig{
		Config: Config{
			Threshold:     0.7,
			Algorithm:     Bundle,
			WindowRecords: 80,
		},
		Workers:      3,
		CollectPairs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Validate against a single-node windowed run.
	single, _ := NewStream(Config{Threshold: 0.7, WindowRecords: 80, Algorithm: Naive})
	var want int
	for _, set := range sets {
		_, ms := single.Add(set)
		want += len(ms)
	}
	if int(res.Results) != want {
		t.Fatalf("windowed distributed: got %d want %d", res.Results, want)
	}
}

// TestRunDistributedBiMatchesBiStream: distributed and single-node
// two-stream joins must agree.
func TestRunDistributedBiMatchesBiStream(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	stream := make([]SideSet, 500)
	for i := range stream {
		n := 3 + rng.Intn(8)
		set := make([]uint32, n)
		for j := range set {
			set[j] = uint32(rng.Intn(60))
		}
		stream[i] = SideSet{Right: rng.Float64() < 0.5, Tokens: set}
	}
	// Single-node reference.
	bi, err := NewBiStream(Config{Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	type pr struct{ a, b uint64 }
	want := make(map[pr]bool)
	for _, s := range stream {
		var id uint64
		var ms []Match
		if s.Right {
			id, ms = bi.AddRight(s.Tokens)
		} else {
			id, ms = bi.AddLeft(s.Tokens)
		}
		for _, m := range ms {
			want[pr{m.ID, id}] = true
		}
	}
	for _, dist := range []Distribution{LengthBased, PrefixBased, BroadcastBased} {
		res, err := RunDistributedBi(stream, DistributedConfig{
			Config:       Config{Threshold: 0.7},
			Workers:      3,
			Distribution: dist,
			CollectPairs: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		got := make(map[pr]bool)
		for _, p := range res.Pairs {
			key := pr{p.A, p.B}
			if got[key] {
				t.Fatalf("%v: duplicate %v", dist, key)
			}
			got[key] = true
		}
		if len(got) != len(want) {
			t.Fatalf("%v: got %d pairs want %d", dist, len(got), len(want))
		}
		for p := range want {
			if !got[p] {
				t.Fatalf("%v: missing %v", dist, p)
			}
		}
	}
}

func TestRunDistributedBiValidation(t *testing.T) {
	if _, err := RunDistributedBi(nil, DistributedConfig{Config: Config{Threshold: 0.8}}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := RunDistributedBi(nil, DistributedConfig{Workers: 2}); err == nil {
		t.Fatal("missing threshold accepted")
	}
	if _, err := RunDistributedBi(nil, DistributedConfig{Config: Config{Threshold: 0.8}, Workers: 2, SampleSize: -1}); err == nil {
		t.Fatal("negative sample size accepted")
	}
}
