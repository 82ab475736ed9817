package remote

import (
	"context"
	"math"
	"time"

	"repro/internal/tokens"
)

// RetryPolicy bounds and paces reconnection attempts after a transport
// failure. The zero value retries nothing: the first failure is final.
type RetryPolicy struct {
	// MaxAttempts is the number of consecutive failed attempts tolerated
	// before the peer is declared dead. A successful handshake resets the
	// count.
	MaxAttempts int
	// Base is the backoff before the first retry; each further retry
	// doubles it up to Cap.
	Base time.Duration
	// Cap bounds the backoff growth. Zero means no cap: the backoff then
	// doubles until one more doubling would overflow a Duration.
	Cap time.Duration
	// Seed drives the deterministic jitter so retry storms decorrelate
	// without nondeterminism in tests. Zero is a valid seed.
	Seed uint64
}

// backoff returns the pause before retry attempt (1-based) in sequence
// seq: exponential growth from Base capped at Cap, with the upper half
// jittered so simultaneous failures don't reconnect in lockstep.
func (p RetryPolicy) backoff(attempt int, seq uint64) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	d := p.Base
	for i := 1; i < attempt && d <= math.MaxInt64/2; i++ {
		d *= 2
		if p.Cap > 0 && d >= p.Cap {
			d = p.Cap
			break
		}
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	// Jitter in [d/2, d): keep half the backoff deterministic floor, spread
	// the rest.
	half := d / 2
	if half <= 0 {
		return d
	}
	j := tokens.SplitMix64(p.Seed ^ (uint64(attempt) << 32) ^ seq)
	return half + time.Duration(j%uint64(half))
}

// sleepCtx pauses for d or until ctx is cancelled, returning the ctx error
// in the latter case. This is the cancellation-aware sleep every retry
// loop must use: TestRunFTCancelDuringBackoff fails when manage's backoff
// outlives a cancelled run.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
