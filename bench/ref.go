package main

import (
	"slices"
	"time"
)

// The reference kernel is a miniature inverted-index join over a fixed
// synthetic data set, written here so that no change to the repository can
// move it. It reads the machine, not the program. On a shared box every
// memory-bound loop slows down and speeds up with what the neighbours do to
// the caches and the memory bus — by 30 % over tens of minutes on the box
// this was written on, with no steal time to show for it — and the kernel
// slows down and speeds up with them. A run takes a reading before and
// after each of its timed parts and reports its time metrics at reference
// speed: divided by (median reading ÷ refNominal). bench/README.md has the
// measurements behind this.
const (
	refRecords = 200_000 // records indexed
	refTokens  = 8       // tokens per record
	refVocab   = 60_000
	refProbes  = 3_000 // records probed per reading, 13 ms
	// refNominal is the time per probe on the machine the metrics are
	// stated for: the 2-vCPU box the baseline was measured on, when quiet.
	refNominal = 4300 * time.Nanosecond
)

type refKernel struct {
	recs     [][]uint32 // sorted token sets, each a heap object of its own
	postings [][]uint32 // token → ids of the records that hold it
	counts   []uint8
	touched  []uint32
	next     int       // first record of the next reading
	sink     int       // keeps the intersections from being optimised away
	readings []float64 // nanoseconds per probe
}

// newRefKernel builds the index once per process.
func newRefKernel() *refKernel {
	k := &refKernel{
		recs:     make([][]uint32, refRecords),
		postings: make([][]uint32, refVocab),
		counts:   make([]uint8, refRecords),
	}
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range k.recs {
		toks := make([]uint32, 0, refTokens)
		for len(toks) < refTokens {
			// The product of two uniforms skews towards small tokens, so a
			// few postings lists are long and most are short.
			t := uint32(rnd() % refVocab * (rnd() % refVocab) / refVocab)
			if !slices.Contains(toks, t) {
				toks = append(toks, t)
			}
		}
		slices.Sort(toks)
		k.recs[i] = toks
		for _, t := range toks {
			k.postings[t] = append(k.postings[t], uint32(i))
		}
	}
	return k
}

// read probes the next records — count shared tokens through the postings,
// then intersect the token sets of every candidate that shares at least two
// — and records how long a probe took.
func (k *refKernel) read(probes int) {
	start := time.Now()
	for n := 0; n < probes; n++ {
		r := k.recs[k.next]
		k.next = (k.next + 7919) % refRecords
		for _, t := range r {
			for _, id := range k.postings[t] {
				if k.counts[id] == 0 {
					k.touched = append(k.touched, id)
				}
				k.counts[id]++
			}
		}
		for _, id := range k.touched {
			if k.counts[id] >= 2 {
				o, a, b := 0, r, k.recs[id]
				for len(a) > 0 && len(b) > 0 {
					switch {
					case a[0] < b[0]:
						a = a[1:]
					case a[0] > b[0]:
						b = b[1:]
					default:
						o++
						a, b = a[1:], b[1:]
					}
				}
				k.sink += o
			}
			k.counts[id] = 0
		}
		k.touched = k.touched[:0]
	}
	k.readings = append(k.readings, float64(time.Since(start))/float64(probes))
}

// slowdown is how much slower than the reference machine this one ran over
// the readings so far: 1 at reference speed, 1.3 when everything takes 30 %
// longer.
func (k *refKernel) slowdown() float64 {
	return median(k.readings) / float64(refNominal)
}
