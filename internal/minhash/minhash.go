// Package minhash implements the classic approximate alternative to exact
// prefix-filter joins: MinHash signatures with LSH banding. Each record is
// summarized by h independent min-hashes; the signature is cut into b
// bands of rows each, and records colliding in any band become candidates.
// The probability a pair with Jaccard similarity s collides is
// 1 − (1 − s^rows)^b — the familiar S-curve, steered by (b, rows).
//
// The experiment suite uses it as the approximate baseline the exact
// streaming join is contrasted against: LSH trades recall for speed and
// cannot bound its error per pair, while the prefix-filter join is exact.
package minhash

import (
	"fmt"

	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

// Params sizes the signature.
type Params struct {
	// Bands and Rows define the banding; the signature has Bands*Rows
	// min-hashes. Defaults (when zero): 16 bands × 4 rows.
	Bands, Rows int
	// Seed derandomizes the hash family.
	Seed uint64
}

func (p Params) withDefaults() Params {
	if p.Bands == 0 {
		p.Bands = 16
	}
	if p.Rows == 0 {
		p.Rows = 4
	}
	return p
}

// Signature computes the record's min-hash signature into sig (allocating
// when nil); len(sig) == Bands*Rows.
func (p Params) Signature(set []tokens.Rank, sig []uint64) []uint64 {
	p = p.withDefaults()
	n := p.Bands * p.Rows
	if cap(sig) < n {
		sig = make([]uint64, n)
	}
	sig = sig[:n]
	// Row i hashes token t as SplitMix64(seed_i ^ t).
	for i := range sig {
		rowSeed := tokens.SplitMix64(p.Seed + uint64(i)*0x9e3779b97f4a7c15)
		min := ^uint64(0)
		for _, t := range set {
			if h := tokens.SplitMix64(rowSeed ^ uint64(t)); h < min {
				min = h
			}
		}
		sig[i] = min
	}
	return sig
}

// bandKey folds one band of the signature into a hash-table key.
func bandKey(band []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range band {
		h ^= v
		h *= 1099511628211
	}
	return h
}

// Match is one emitted pair; Sim is exact when Verify is on, otherwise an
// estimate from the signature.
type Match struct {
	Rec *record.Record
	Sim float64
}

// Stats counts join work.
type Stats struct {
	Records    uint64
	Candidates uint64 // distinct colliding records considered
	Verified   uint64
	Results    uint64
	Buckets    uint64 // live band-bucket entries
}

type entry struct {
	rec *record.Record
	sig []uint64
}

// Joiner is the streaming LSH self-join: Add probes the band tables and
// then inserts the new record. Threshold semantics follow Jaccard;
// verification (on by default) makes emitted pairs exact, leaving recall
// as the only approximation.
type Joiner struct {
	params    Params
	threshold float64
	win       window.Policy
	verify    bool

	tables []map[uint64][]*entry // one per band
	fifo   []*entry
	head   int
	dead   map[record.ID]struct{}
	stats  Stats
	seen   map[record.ID]struct{}
}

// Config wires a Joiner.
type Config struct {
	Params    Params
	Threshold float64
	Window    window.Policy
	// SkipVerify emits candidates with signature-estimated similarity
	// instead of exact verification (fastest, least precise).
	SkipVerify bool
}

// New builds an empty LSH joiner.
func New(cfg Config) (*Joiner, error) {
	if cfg.Threshold <= 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("minhash: threshold must be in (0,1], got %v", cfg.Threshold)
	}
	p := cfg.Params.withDefaults()
	win := cfg.Window
	if win == nil {
		win = window.Unbounded{}
	}
	tables := make([]map[uint64][]*entry, p.Bands)
	for i := range tables {
		tables[i] = make(map[uint64][]*entry)
	}
	return &Joiner{
		params:    p,
		threshold: cfg.Threshold,
		win:       win,
		verify:    !cfg.SkipVerify,
		tables:    tables,
		dead:      make(map[record.ID]struct{}),
		seen:      make(map[record.ID]struct{}),
	}, nil
}

// EstimateSim estimates Jaccard similarity as the fraction of agreeing
// signature rows.
func EstimateSim(a, b []uint64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// Add processes the next record: evict, probe band tables, emit matches,
// insert. Matches are unique per partner.
func (j *Joiner) Add(r *record.Record, emit func(Match)) {
	j.stats.Records++
	j.evict(r.ID, r.Time)
	sig := j.params.Signature(r.Tokens, nil)
	rows := j.params.Rows
	for b := 0; b < j.params.Bands; b++ {
		key := bandKey(sig[b*rows : (b+1)*rows])
		list := j.tables[b][key]
		w := 0
		for _, e := range list {
			if _, d := j.dead[e.rec.ID]; d {
				j.stats.Buckets--
				continue
			}
			list[w] = e
			w++
			if _, dup := j.seen[e.rec.ID]; dup {
				continue
			}
			j.seen[e.rec.ID] = struct{}{}
			j.stats.Candidates++
			if j.verify {
				j.stats.Verified++
				sim := similarity.Of(similarity.Jaccard, r.Tokens, e.rec.Tokens)
				if sim >= j.threshold-1e-12 {
					j.stats.Results++
					emit(Match{Rec: e.rec, Sim: sim})
				}
			} else {
				est := EstimateSim(sig, e.sig)
				if est >= j.threshold-1e-12 {
					j.stats.Results++
					emit(Match{Rec: e.rec, Sim: est})
				}
			}
		}
		if w == 0 {
			delete(j.tables[b], key)
		} else {
			j.tables[b][key] = list[:w]
		}
	}
	for id := range j.seen {
		delete(j.seen, id)
	}
	// Insert.
	e := &entry{rec: r, sig: sig}
	for b := 0; b < j.params.Bands; b++ {
		key := bandKey(sig[b*rows : (b+1)*rows])
		j.tables[b][key] = append(j.tables[b][key], e)
	}
	j.stats.Buckets += uint64(j.params.Bands)
	j.fifo = append(j.fifo, e)
}

func (j *Joiner) evict(nowSeq record.ID, nowTime int64) {
	for j.head < len(j.fifo) {
		e := j.fifo[j.head]
		if j.win.Live(e.rec.ID, e.rec.Time, nowSeq, nowTime) {
			break
		}
		j.dead[e.rec.ID] = struct{}{}
		j.fifo[j.head] = nil
		j.head++
	}
	if j.head > 64 && j.head*2 > len(j.fifo) {
		j.fifo = append(j.fifo[:0], j.fifo[j.head:]...)
		j.head = 0
	}
}

// Size reports live stored records.
func (j *Joiner) Size() int { return len(j.fifo) - j.head }

// Stats snapshots the counters.
func (j *Joiner) Stats() Stats { return j.stats }
