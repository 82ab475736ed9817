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

// ReadResults appends the pairs of a staged Result frame to dst.
func (r *Reader) ReadResults(dst []Result) ([]Result, error) {
	_, dst, err := DecodeResults(dst, r.buf)
	return dst, err
}

// ReadNumberedResults appends the pairs of a staged Result frame to dst
// and returns the number of its first pair too.
func (r *Reader) ReadNumberedResults(dst []Result) (uint64, []Result, error) {
	return DecodeResults(dst, r.buf)
}
