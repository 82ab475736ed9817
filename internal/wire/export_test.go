package wire

// SetFramePairs caps the pairs of one Result frame at n until the returned
// restore runs, so tests can split a probe's pairs over several frames
// without a million of them. Callers must not run in parallel with other
// writers.
func SetFramePairs(n int) (restore func()) {
	old := framePairs
	framePairs = n
	return func() { framePairs = old }
}
