// Package allocfix exercises allocheck: direct allocation sites in
// functions marked `hotpath: zero-alloc`, transitive propagation through
// same-package callees, unverifiable external calls, the allowed
// self-append idiom, and suppression.
package allocfix

import (
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// grow appends into a new variable: a growth allocation.
//
// hotpath: zero-alloc
func grow(xs []int) []int {
	ys := append(xs, 1) // want "append outside the self-assign form"
	return ys
}

// selfAppend uses the amortized idiom and stays clean.
//
// hotpath: zero-alloc
func selfAppend(xs []int) []int {
	xs = append(xs, 1)
	return xs
}

// helper allocates; it is not hot itself, but hot callers inherit the
// violation through the package-local summary.
func helper(n int) []int {
	return make([]int, n)
}

// viaCall is hot and calls helper.
//
// hotpath: zero-alloc
func viaCall(n int) []int {
	return helper(n) // want "call to allocfix.helper, which allocates \\(make\\)"
}

// external calls into a standard-library package outside the alloc-free
// allowlist; unverifiable counts as a finding, not a pass.
//
// hotpath: zero-alloc
func external(v int) string {
	return strconv.Itoa(v) // want "not verified alloc-free"
}

// lowers decodes, classifies and re-encodes runes: unicode and
// unicode/utf8 are allowlisted, and AppendRune in the self-assign form
// grows its argument like append.
//
// hotpath: zero-alloc
func lowers(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			dst = utf8.AppendRune(dst, unicode.ToLower(r))
		}
		i += size
	}
	return dst
}

// writes calls a method of an interface another package declares: a
// dynamic call, trusted like one through a local interface even though
// package io itself is unverified.
//
// hotpath: zero-alloc
func writes(w io.Writer, p []byte) {
	w.Write(p)
}

// boxesValue stores a struct in an interface, which copies it to the heap;
// a pointer is the interface's data word and costs nothing.
//
// hotpath: zero-alloc
func boxesValue(p *pair, sink func(any)) {
	sink(*p) // want "interface conversion at argument \\(boxing\\)"
	sink(p)
}

// closes builds a closure on the hot path.
//
// hotpath: zero-alloc
func closes(n int) func() int {
	f := func() int { return n } // want "function literal \\(closure allocation\\)"
	return f
}

// structValue passes a plain value literal: registers, no heap.
//
// hotpath: zero-alloc
func structValue(emit func(pair)) {
	emit(pair{a: 1, b: 2})
}

// pair is a value payload for structValue.
type pair struct{ a, b int }

// suppressed documents a deliberate warm-up allocation.
//
// hotpath: zero-alloc
func suppressed() []int {
	//lint:ignore allocheck fixture: one-time warm-up buffer, measured cold
	return make([]int, 8)
}
