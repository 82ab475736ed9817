// Package reorder restores arrival order for streams that cross parallel
// paths, where records can reach a consumer slightly out of sequence
// order, which breaks windowed join semantics (eviction assumes
// nondecreasing sequence numbers). Nothing in the module imports it: the
// topology gives every worker exactly one dispatcher instead, because no
// slack bounds how long a partial batch can wait. A Buffer holds items
// until a watermark — the highest sequence seen minus an allowed lateness
// (slack) — passes them, then releases in ascending order. Items arriving
// later than the slack cannot be ordered anymore; they are counted and
// dropped, the standard allowed-lateness contract of stream processors.
package reorder

import "container/heap"

// Buffer reorders items within a bounded disorder horizon. T carries the
// payload; seq extracts its sequence number. The zero value is not usable;
// call New.
type Buffer[T any] struct {
	slack    uint64
	seq      func(T) uint64
	pending  itemHeap[T]
	maxSeen  uint64
	released uint64
	any      bool
	late     uint64
}

// New returns a buffer tolerating items up to slack sequence numbers late
// (slack 0 degenerates to pass-through for already-ordered streams).
func New[T any](slack uint64, seq func(T) uint64) *Buffer[T] {
	return &Buffer[T]{slack: slack, seq: seq}
}

// Late reports how many items arrived beyond the slack and were dropped.
func (b *Buffer[T]) Late() uint64 { return b.late }

// Pending reports how many items are buffered.
func (b *Buffer[T]) Pending() int { return len(b.pending.items) }

// Push accepts the next arrival and emits, in ascending sequence order,
// every buffered item at or below the new watermark.
func (b *Buffer[T]) Push(v T, emit func(T)) {
	s := b.seq(v)
	if b.any && s <= b.released {
		// Cannot be ordered anymore: it would regress the output.
		b.late++
		return
	}
	b.pending.push(s, v)
	if s > b.maxSeen {
		b.maxSeen = s
	}
	if b.maxSeen <= b.slack {
		return // watermark has not advanced past zero yet
	}
	watermark := b.maxSeen - b.slack
	for len(b.pending.items) > 0 && b.pending.items[0].seq <= watermark {
		b.release(emit)
	}
}

// Flush releases everything still buffered, in order. Call at stream end.
func (b *Buffer[T]) Flush(emit func(T)) {
	for len(b.pending.items) > 0 {
		b.release(emit)
	}
}

func (b *Buffer[T]) release(emit func(T)) {
	it := b.pending.pop()
	b.released = it.seq
	b.any = true
	emit(it.v)
}

type item[T any] struct {
	seq uint64
	v   T
}

// itemHeap is a min-heap by sequence number.
type itemHeap[T any] struct{ items []item[T] }

func (h *itemHeap[T]) Len() int           { return len(h.items) }
func (h *itemHeap[T]) Less(i, j int) bool { return h.items[i].seq < h.items[j].seq }
func (h *itemHeap[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *itemHeap[T]) Push(x interface{}) { h.items = append(h.items, x.(item[T])) }
func (h *itemHeap[T]) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	var zero item[T]
	old[n-1] = zero
	h.items = old[:n-1]
	return x
}

func (h *itemHeap[T]) push(seq uint64, v T) { heap.Push(h, item[T]{seq: seq, v: v}) }
func (h *itemHeap[T]) pop() item[T]         { return heap.Pop(h).(item[T]) }
