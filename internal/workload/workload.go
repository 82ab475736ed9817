// Package workload generates the synthetic record streams the experiments
// run on. The paper evaluates on real corpora (web queries, tweets,
// emails); those are substituted here by generators that reproduce the two
// statistics that drive set-similarity-join cost — the record-length
// distribution and the token-frequency skew — plus a controllable
// near-duplicate rate, since duplicate-heavy streams are what bundling
// exploits. Each named profile documents the corpus it stands in for.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/tokens"
)

// LengthDist samples record set sizes.
type LengthDist interface {
	Sample(rng *rand.Rand) int
	String() string
}

// Lognormal samples lengths from exp(N(Mu, Sigma²)) clamped to [Min, Max] —
// the canonical shape of document-length distributions.
type Lognormal struct {
	Mu, Sigma float64
	Min, Max  int
}

// Sample implements LengthDist.
func (d Lognormal) Sample(rng *rand.Rand) int {
	l := int(math.Round(math.Exp(rng.NormFloat64()*d.Sigma + d.Mu)))
	if l < d.Min {
		l = d.Min
	}
	if l > d.Max {
		l = d.Max
	}
	return l
}

// String implements fmt.Stringer.
func (d Lognormal) String() string {
	return fmt.Sprintf("lognormal(μ=%.2f σ=%.2f [%d,%d])", d.Mu, d.Sigma, d.Min, d.Max)
}

// Uniform samples lengths uniformly from [Min, Max].
type Uniform struct{ Min, Max int }

// Sample implements LengthDist.
func (d Uniform) Sample(rng *rand.Rand) int {
	if d.Max <= d.Min {
		return d.Min
	}
	return d.Min + rng.Intn(d.Max-d.Min+1)
}

// String implements fmt.Stringer.
func (d Uniform) String() string { return fmt.Sprintf("uniform[%d,%d]", d.Min, d.Max) }

// Profile parameterizes a stream generator.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// Vocab is the token-universe size.
	Vocab int
	// ZipfS is the token-frequency skew exponent (must be > 1; higher is
	// more skewed).
	ZipfS float64
	// Lengths is the record set-size distribution.
	Lengths LengthDist
	// DupRate is the probability an incoming record is a near-duplicate of
	// a recent record rather than a fresh draw.
	DupRate float64
	// DupMutate is the per-token replacement probability applied when
	// deriving a near-duplicate.
	DupMutate float64
	// Seed makes the stream reproducible.
	Seed int64
}

// The named profiles stand in for the corpora distributed streaming
// set-similarity join papers evaluate on. Scales are laptop-sized; the
// harness sweeps record counts independently.

// AOLLike imitates a web query log: very short records (mean ≈ 3 tokens),
// large skewed vocabulary, moderate duplication (repeated queries).
func AOLLike(seed int64) Profile {
	return Profile{
		Name:      "AOL-like",
		Vocab:     200_000,
		ZipfS:     1.2,
		Lengths:   Lognormal{Mu: 1.1, Sigma: 0.45, Min: 1, Max: 20},
		DupRate:   0.30,
		DupMutate: 0.25,
		Seed:      seed,
	}
}

// TweetLike imitates a microblog stream: ~10-token records, heavy skew,
// high near-duplicate rate (retweets).
func TweetLike(seed int64) Profile {
	return Profile{
		Name:      "TWEET-like",
		Vocab:     500_000,
		ZipfS:     1.15,
		Lengths:   Lognormal{Mu: 2.3, Sigma: 0.4, Min: 3, Max: 60},
		DupRate:   0.45,
		DupMutate: 0.15,
		Seed:      seed,
	}
}

// EnronLike imitates an email corpus: long records with a fat tail.
func EnronLike(seed int64) Profile {
	return Profile{
		Name:      "ENRON-like",
		Vocab:     300_000,
		ZipfS:     1.1,
		Lengths:   Lognormal{Mu: 4.4, Sigma: 0.7, Min: 10, Max: 800},
		DupRate:   0.20,
		DupMutate: 0.10,
		Seed:      seed,
	}
}

// UniformSmall is a fully controlled profile for unit-scale experiments.
func UniformSmall(seed int64) Profile {
	return Profile{
		Name:      "UNIFORM",
		Vocab:     10_000,
		ZipfS:     1.3,
		Lengths:   Uniform{Min: 4, Max: 24},
		DupRate:   0.35,
		DupMutate: 0.2,
		Seed:      seed,
	}
}

// Profiles returns all named profiles keyed by report name.
func Profiles(seed int64) []Profile {
	return []Profile{AOLLike(seed), TweetLike(seed), EnronLike(seed), UniformSmall(seed)}
}

// ProfileByName resolves a profile name (case-sensitive prefix before the
// "-like" suffix is accepted too).
func ProfileByName(name string, seed int64) (Profile, error) {
	for _, p := range Profiles(seed) {
		if p.Name == name {
			return p, nil
		}
	}
	switch name {
	case "aol":
		return AOLLike(seed), nil
	case "tweet":
		return TweetLike(seed), nil
	case "enron":
		return EnronLike(seed), nil
	case "uniform":
		return UniformSmall(seed), nil
	}
	return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
}

// Generator produces a reproducible record stream for a profile.
// Token ranks are assigned so that ascending rank means ascending expected
// frequency, exactly the global ordering prefix filtering assumes: the
// Zipf sample k (0 = most frequent) maps to rank Vocab-1-k.
//
// Next costs O(n) draws plus one sort for a record of n tokens: a fresh
// record checks each drawn rank against a membership stamp and sorts once
// at the end.
type Generator struct {
	prof Profile
	rng  *rand.Rand
	zipf *rand.Zipf
	// reservoir of recent records to derive near-duplicates from
	recent []*record.Record
	next   record.ID
	// seen[t] == stamp marks rank t as drawn for the fresh record being
	// built; bumping stamp unmarks every rank at once.
	seen  []uint32
	stamp uint32
}

// NewGenerator returns a generator for the profile.
func NewGenerator(p Profile) *Generator {
	if p.Vocab < 2 {
		panic("workload: Vocab must be >= 2")
	}
	if p.ZipfS <= 1 {
		panic("workload: ZipfS must be > 1")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	return &Generator{
		prof: p,
		rng:  rng,
		zipf: rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Vocab-1)),
		seen: make([]uint32, p.Vocab),
	}
}

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

func (g *Generator) sampleToken() tokens.Rank {
	k := g.zipf.Uint64() // 0 is the most frequent token
	return tokens.Rank(uint64(g.prof.Vocab) - 1 - k)
}

// Next produces the next record of the stream.
func (g *Generator) Next() *record.Record {
	var set []tokens.Rank
	if len(g.recent) > 0 && g.rng.Float64() < g.prof.DupRate {
		src := g.recent[g.rng.Intn(len(g.recent))]
		set = append([]tokens.Rank(nil), src.Tokens...)
		for i := range set {
			if g.rng.Float64() < g.prof.DupMutate {
				set[i] = g.sampleToken()
			}
		}
		set = tokens.Dedup(set)
	} else {
		n := g.prof.Lengths.Sample(g.rng)
		if n < 1 {
			n = 1
		}
		g.stamp++
		if g.stamp == 0 { // wrapped: unmarked and old marks would read as drawn
			clear(g.seen)
			g.stamp = 1
		}
		set = make([]tokens.Rank, 0, n)
		for attempts := 0; len(set) < n && attempts < 20*n; attempts++ {
			if t := g.sampleToken(); g.seen[t] != g.stamp {
				g.seen[t] = g.stamp
				set = append(set, t)
			}
		}
		slices.Sort(set)
	}
	r := &record.Record{ID: g.next, Time: int64(g.next), Tokens: set}
	g.next++
	if len(g.recent) < 512 {
		g.recent = append(g.recent, r)
	} else {
		g.recent[g.rng.Intn(len(g.recent))] = r
	}
	return r
}

// Generate materializes the next n records.
func (g *Generator) Generate(n int) []*record.Record {
	out := make([]*record.Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// LengthHistogram builds a length histogram from a fresh sample of n
// records of the same profile without consuming the generator — the
// bootstrap statistics the load-aware partitioner needs.
func LengthHistogram(p Profile, n int) *partition.Histogram {
	g := NewGenerator(p)
	var h partition.Histogram
	for i := 0; i < n; i++ {
		h.Add(g.Next().Len())
	}
	return &h
}
