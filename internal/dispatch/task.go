package dispatch

import (
	"repro/internal/bundle"
	"repro/internal/local"
	"repro/internal/record"
)

// Task is worker task of k's side of a Strategy, the one per-record rule
// both runtimes step through: a record probes the task's joiner, is stored
// when the caller's Stores flag says so, and a match counts only when
// Emits gives the pair to this task. One goroutine steps a Task.
type Task struct {
	strat   Strategy
	task, k int
	joiner  local.Joiner
	bi      *local.BiJoiner // in place of joiner on a two-stream run
	collect bool
	// emitFn is emit bound once, so that a step allocates nothing, or nil
	// when the joiner only counts; cur is the record under probe and n its
	// results so far.
	emitFn  func(local.Match)
	cur     *record.Record
	n       int
	pairs   []record.Pair
	results uint64
}

// NewTask builds the task's joiner of algorithm a, a BiJoiner when bi is
// set; collect keeps every result pair, in the order the steps find them.
func NewTask(s Strategy, task, k int, a local.Algorithm, opt local.Options, bi, collect bool) *Task {
	t := &Task{strat: s, task: task, k: k, collect: collect}
	if bi {
		t.bi = local.NewBi(a, opt)
	} else {
		t.joiner = local.New(a, opt)
	}
	switch s.(type) {
	case LengthBased, BroadcastBased, Migrating:
		if !collect { // one home per record: Emits passes every pair
			return t
		}
	}
	t.emitFn = t.emit
	return t
}

func (t *Task) emit(m local.Match) {
	if !t.strat.Emits(t.cur, m.Rec, t.task, t.k) {
		return
	}
	t.n++
	if t.collect {
		t.pairs = append(t.pairs, record.NewPair(t.cur.ID, m.ID, m.Sim))
	}
}

// Stores reports whether the strategy stores r at this task.
func (t *Task) Stores(r *record.Record) bool { return t.strat.Stores(r, t.task, t.k) }

// Step probes r, on the right side of a two-stream run when right is set,
// stores it when store is set, and returns the results this task owns.
// Records arrive in ID order.
func (t *Task) Step(r *record.Record, right, store bool) int {
	t.cur, t.n = r, 0
	var n int
	if t.bi != nil {
		n = t.bi.StepSide(r, right, store, t.emitFn)
	} else {
		n = t.joiner.Step(r, store, t.emitFn)
	}
	if t.emitFn != nil {
		n = t.n // the joiner counted before arbitration
	}
	t.results += uint64(n)
	return n
}

// Load stores r without probing: the window-replay path.
func (t *Task) Load(r *record.Record, right bool) {
	if t.bi != nil {
		t.bi.LoadSide(r, right)
	} else {
		t.joiner.Load(r)
	}
}

// Results is the sum of what Step returned.
func (t *Task) Results() uint64 { return t.results }

// TakePairs returns the pairs collected since the last TakePairs; the next
// Step reuses the slice.
func (t *Task) TakePairs() []record.Pair {
	ps := t.pairs
	t.pairs = t.pairs[:0]
	return ps
}

// Cost reports the joiner's work counters, both sides' on a two-stream run.
func (t *Task) Cost() local.Cost {
	if t.bi != nil {
		return t.bi.Cost()
	}
	return t.joiner.Cost()
}

// BundleStats reports the bundle index's counters; ok is false unless the
// task runs one Bundled joiner.
func (t *Task) BundleStats() (st bundle.Stats, ok bool) {
	if bj, ok := t.joiner.(interface{ BundleStats() bundle.Stats }); ok {
		return bj.BundleStats(), true
	}
	return st, false
}
