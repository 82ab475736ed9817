// Package wire is a miniature frame protocol exercising wirestate:
// handled-by declarations on frame constants, dispatch-switch and inline
// handler annotations, three-arm (encode/decode/handler) coverage,
// default-or-exhaustive opcode switches, and suppression. The package
// must be named "wire" for its Type* constants to count as frame types.
package wire

// Frame types under test.
const (
	// TypeA is fully covered: encode arm, decode arm, worker handler.
	// handled-by: worker
	TypeA byte = iota + 1
	// TypeB declares a coordinator consumer no dispatch provides.
	// handled-by: coordinator
	TypeB // want "declares handled-by: coordinator but no coordinator dispatch handles it"
	// TypeC forgot its handled-by marker entirely.
	TypeC // want "has no handled-by marker"
	// TypeD is missing its encode arm (never passed to flushFrame).
	// handled-by: worker
	TypeD // want "has no encode arm"
	// TypeE's missing handler is suppressed with a documented reason.
	// handled-by: worker
	TypeE //lint:ignore wirestate fixture: handler lands with the next frame type
	// TypeF is consumed outside any switch, via a wire-handled marker.
	// handled-by: worker
	TypeF
	// TypeG closes the stream; payload-free, nothing to decode.
	// handled-by: worker
	TypeG
	// TypeH is missing its decode arm: no ReadH, and it carries a payload.
	// handled-by: worker
	TypeH // want "has no decode arm"
)

// Writer encodes frames.
type Writer struct{}

// flushFrame pretends to write one frame of type t.
func (w *Writer) flushFrame(t byte) {}

// WriteAll exercises the encode arms (TypeD deliberately absent).
func (w *Writer) WriteAll() {
	w.flushFrame(TypeA)
	w.flushFrame(TypeB)
	w.flushFrame(TypeC)
	w.flushFrame(TypeE)
	w.flushFrame(TypeF)
	w.flushFrame(TypeG)
	w.flushFrame(TypeH)
}

// Reader decodes frames.
type Reader struct{}

// ReadA decodes a TypeA payload.
func (r *Reader) ReadA() {}

// ReadB decodes a TypeB payload.
func (r *Reader) ReadB() {}

// ReadC decodes a TypeC payload.
func (r *Reader) ReadC() {}

// ReadD decodes a TypeD payload.
func (r *Reader) ReadD() {}

// ReadE decodes a TypeE payload.
func (r *Reader) ReadE() {}

// ReadF decodes a TypeF payload.
func (r *Reader) ReadF() {}

// handle is the worker-side dispatch loop.
func handle(t byte) {
	// wire-dispatch: worker
	switch t {
	case TypeA, TypeD, TypeG, TypeH:
	default:
	}
}

// drainF consumes TypeF outside any dispatch switch.
func drainF(t byte) bool {
	// wire-handled: worker TypeF
	return t == TypeF
}

func goodSwitchWithDefault(t byte) int {
	switch t {
	case TypeA:
		return 1
	default:
		return 0
	}
}

func goodExhaustiveSwitch(t byte) int {
	switch t {
	case TypeA, TypeB, TypeC, TypeD, TypeE, TypeF, TypeG, TypeH:
		return 1
	}
	return 0
}

func badPartialSwitch(t byte) int {
	switch t { // want "misses wire.TypeB, wire.TypeC, wire.TypeD, wire.TypeE, wire.TypeF, wire.TypeG, wire.TypeH"
	case TypeA:
		return 1
	}
	return 0
}

func unrelatedSwitchIsFine(n int) int {
	switch n {
	case 1:
		return 1
	}
	return 0
}
