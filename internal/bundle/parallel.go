// Parallel probe/verify: a per-index pool of verifier goroutines fans
// the verification of a probe's candidate bundles out across cores and
// emits the results in candidate order, so a parallel probe emits the
// exact sequence the sequential Probe emits — for any pool size.
//
// The determinism argument rests on the phase split collectCandidates
// introduced: collect (single-writer, mutates postings) → verify
// (read-only, fanned out) → emit (single-writer, candidate order) →
// insert (single-writer). During the verify phase no goroutine writes
// the index, so verifiers need no locks and no snapshots; each works out
// of its own VerifyCtx (stats + match arena), and the WaitGroup barrier
// plus the job channel sends give the happens-before edges that make the
// whole exchange race-detector clean. Matches land in per-context arenas
// tagged with (context, offset, count) per candidate *position*; after the
// barrier the caller walks the positions in order and emits each range
// straight out of its arena — which context verified a candidate decides
// where its matches sit, never when they are emitted. The best-insertion
// pick applies betterIns (max similarity, min partner ID), a pure function
// of the match set, so grouping decisions (and therefore index evolution)
// are identical too.
package bundle

import (
	"sync"
	"sync/atomic"

	"repro/internal/record"
)

// fanoutMin is the candidate count below which a pooled probe stays on the
// calling goroutine: waking helpers for a couple of bundles costs more than
// the verification itself. Determinism does not depend on the cutoff — the
// serial path and the fanned path emit identical sequences.
const fanoutMin = 4

// claimChunk is how many candidates a verifier claims per atomic cursor
// bump. Chunking cuts cursor contention roughly 8× on candidate-heavy
// probes; determinism is free because results are indexed by candidate
// position, not claim order.
const claimChunk = 8

// VerifyCtx is the goroutine-local state of one verifier: private work
// counters (folded into Index.Stats at the barrier via mergeVerify) and a
// match arena (emitted from after the barrier). Contexts are created once
// per pool and reused for every record, so the steady-state probe path
// allocates nothing beyond amortized arena growth.
type VerifyCtx struct {
	id      int
	stats   Stats
	arena   []Match
	collect func(Match) // appends to arena; built once to avoid a per-record closure

	// verified counts candidates this context verified over the pool's
	// lifetime. Atomic: scrape goroutines read it mid-run (per-core work
	// distribution in /metrics).
	verified atomic.Uint64
}

// candResult records where one candidate's matches landed: an arena
// range in ctx's VerifyCtx plus the candidate's best-insertion hint.
// Pool.verify emits the ranges in candidate order.
type candResult struct {
	ctx    int
	off, n int
	best   Insertion
	found  bool
}

// probeJob is the unit handed to helper goroutines: one record's
// candidate bundles. Helpers claim candidates by atomically advancing
// next (work stealing over a shared cursor, so an unlucky split cannot
// stall the round) and write disjoint entries of res. One probe runs at a
// time per pool, so the pool reuses a single job value.
type probeJob struct {
	bx    *Index
	r     *record.Record
	cands []*Bundle
	res   []candResult
	next  atomic.Int64
	wg    sync.WaitGroup
}

// Pool is a reusable set of verifier goroutines shared by successive
// probes of one index owner. NewPool(p) starts p-1 helper goroutines; the
// probing goroutine itself is the p-th verifier, so p=1 spawns nothing
// and behaves exactly like the sequential path. A Pool is owned by a
// single probing goroutine (one probe at a time); Close releases the
// helpers. Counter snapshots (Snapshot) are safe from any goroutine.
type Pool struct {
	ctxs []*VerifyCtx // ctxs[0] belongs to the probing goroutine
	jobs chan *probeJob
	wg   sync.WaitGroup
	job  probeJob
	res  []candResult

	closed bool

	roundsSerial   atomic.Uint64 // probes kept on the caller (below fanoutMin)
	roundsParallel atomic.Uint64 // probes fanned out to helpers
	fanned         atomic.Uint64 // candidates verified in fanned rounds
	idleStints     atomic.Uint64 // helper wakeups that found the cursor drained
}

// NewPool returns a verifier pool of size p (clamped to >= 1). Size 1
// means "sequential": no goroutines, no channel, zero overhead.
func NewPool(p int) *Pool {
	if p < 1 {
		p = 1
	}
	pool := &Pool{ctxs: make([]*VerifyCtx, p)}
	for i := range pool.ctxs {
		c := &VerifyCtx{id: i}
		c.collect = func(m Match) { c.arena = append(c.arena, m) }
		pool.ctxs[i] = c
	}
	if p > 1 {
		// Buffered to pool size so a round's handoff sends never block.
		pool.jobs = make(chan *probeJob, p-1)
		pool.wg.Add(p - 1)
		for i := 1; i < p; i++ {
			go pool.helper(pool.ctxs[i])
		}
	}
	return pool
}

// Size returns the pool's parallelism (helper goroutines + the caller).
func (p *Pool) Size() int { return len(p.ctxs) }

// Close stops the helper goroutines and waits for them to exit. The pool
// must be idle (no probe in flight). Closing a closed pool is a no-op;
// a closed pool must not be passed to ProbePar again.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	if p.jobs != nil {
		close(p.jobs)
		p.wg.Wait()
	}
}

// helper is the long-lived loop of one pool goroutine: receive a job,
// steal candidates until the cursor drains, signal the barrier, park on
// the channel again. It exits when Close closes the channel.
func (p *Pool) helper(c *VerifyCtx) {
	defer p.wg.Done()
	for j := range p.jobs {
		p.runStint(j, c)
		j.wg.Done()
	}
}

// runStint verifies candidate bundles for one job out of context c,
// claimChunk at a time, until the shared cursor is exhausted.
//
// Runs on the verifier pool. Everything it writes is local to c
// or a disjoint res entry; the index is read-only here.
//
// hotpath: zero-alloc — the claim loop runs once per chunk; match
// payloads land in the per-context arena, not fresh slices.
func (p *Pool) runStint(j *probeJob, c *VerifyCtx) {
	worked := false
	for {
		base := int(j.next.Add(claimChunk)) - claimChunk
		if base >= len(j.cands) {
			break
		}
		end := base + claimChunk
		if end > len(j.cands) {
			end = len(j.cands)
		}
		worked = true
		for i := base; i < end; i++ {
			off := len(c.arena)
			ins, found := j.bx.probeBundle(j.r, j.cands[i], &c.stats, c.collect)
			j.res[i] = candResult{ctx: c.id, off: off, n: len(c.arena) - off, best: ins, found: found}
			c.verified.Add(1)
		}
	}
	if !worked {
		p.idleStints.Add(1)
	}
}

// ProbePar is Probe with the verification of the candidate bundles fanned
// out over pool. It emits the identical match sequence and returns the
// identical insertion hint for any pool size, including nil (sequential).
// The caller must be the pool's owning goroutine.
func (bx *Index) ProbePar(pool *Pool, r *record.Record, emit func(Match)) (best Insertion, ok bool) {
	if pool == nil || len(pool.ctxs) == 1 {
		return bx.Probe(r, emit)
	}
	cands := bx.collectCandidates(r)
	if len(cands) < fanoutMin {
		pool.roundsSerial.Add(1)
		best, ok = bx.verifySerial(r, cands, emit)
	} else {
		best, ok = pool.verify(bx, r, cands, emit)
	}
	bx.publish()
	return best, ok
}

// verify runs one fanned round: reset the per-context arenas, wake enough
// helpers for the candidates, verify from the caller's own context, wait
// the barrier out, then fold the per-context stats into the index, emit
// every candidate's arena range in candidate order — res is indexed by
// candidate position, so that is the order the serial loop finds them in,
// whichever context verified what — and reduce the best-insertion hints
// under betterIns, a pure function of the match set, so reduction order
// cannot matter.
func (p *Pool) verify(bx *Index, r *record.Record, cands []*Bundle, emit func(Match)) (best Insertion, ok bool) {
	p.roundsParallel.Add(1)
	p.fanned.Add(uint64(len(cands)))
	if cap(p.res) < len(cands) {
		p.res = make([]candResult, len(cands))
	}
	res := p.res[:len(cands)]
	for _, c := range p.ctxs {
		c.arena = c.arena[:0]
	}
	j := &p.job
	j.bx, j.r, j.cands, j.res = bx, r, cands, res
	j.next.Store(0)

	helpers := len(p.ctxs) - 1
	if n := len(cands) - 1; helpers > n {
		helpers = n
	}
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		p.jobs <- j
	}
	p.runStint(j, p.ctxs[0])
	j.wg.Wait()
	j.bx, j.r, j.cands, j.res = nil, nil, nil, nil

	for _, c := range p.ctxs {
		bx.stats.mergeVerify(&c.stats)
		c.stats = Stats{}
	}
	for i := range res {
		cr := &res[i]
		for _, m := range p.ctxs[cr.ctx].arena[cr.off : cr.off+cr.n] {
			emit(m)
		}
		if cr.found && (!ok || betterIns(cr.best, best)) {
			best, ok = cr.best, true
		}
	}
	return best, ok
}

// PoolStats is a point-in-time snapshot of a pool's work counters.
type PoolStats struct {
	Size           int
	RoundsSerial   uint64   // probes below the fanout cutoff
	RoundsParallel uint64   // probes fanned across the pool
	Fanned         uint64   // candidates verified in fanned rounds
	IdleStints     uint64   // helper wakeups that found no work left
	PerCtx         []uint64 // candidates verified per context (caller first)
}

// CtxVerified reads one context's lifetime verified-candidate counter
// without allocating; scrape callbacks use it per series.
func (p *Pool) CtxVerified(i int) uint64 { return p.ctxs[i].verified.Load() }

// Snapshot reads the pool counters. Safe to call from a scrape goroutine
// while the owner is probing.
func (p *Pool) Snapshot() PoolStats {
	if p == nil {
		return PoolStats{Size: 1}
	}
	s := PoolStats{
		Size:           len(p.ctxs),
		RoundsSerial:   p.roundsSerial.Load(),
		RoundsParallel: p.roundsParallel.Load(),
		Fanned:         p.fanned.Load(),
		IdleStints:     p.idleStints.Load(),
		PerCtx:         make([]uint64, len(p.ctxs)),
	}
	for i, c := range p.ctxs {
		s.PerCtx[i] = c.verified.Load()
	}
	return s
}
