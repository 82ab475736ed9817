// Package faultwire wraps a wire-protocol transport with deterministic
// fault injection: frames crossing the connection can be delayed,
// duplicated, or the connection severed mid-stream, all driven by a seeded
// PRNG so a failing chaos run reproduces exactly. The wrapper is
// frame-aware — it parses the [type][uvarint length][payload] framing in
// both directions and applies faults on whole-frame boundaries, so
// injected duplicates are valid protocol traffic rather than byte noise.
//
// It exists to exercise internal/remote's fault-tolerant coordinator: a
// severed connection forces retry/reconnect/resume, duplicated record and
// result frames exercise both dedup filters, and delays exercise the
// heartbeat watchdog's tolerance.
package faultwire

import (
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tokens"
	"repro/internal/wire"
)

// ErrSevered is returned by Write after the wrapper cut the connection.
// Reads keep draining frames the peer already sent until the transport
// reports EOF — the orderly-close delivery model.
var ErrSevered = errors.New("faultwire: connection severed by fault injection")

// Config selects which faults to inject. Probabilities are per frame in
// per-mille (0–1000); all faults are off in the zero value, making Wrap a
// transparent (but still frame-parsing) passthrough.
type Config struct {
	// Seed drives the per-frame fault decisions. The same seed over the
	// same traffic produces the same faults. Each direction keeps its own
	// frame counter, so decisions are deterministic even though the two
	// directions interleave arbitrarily in time.
	Seed uint64
	// SeverPerMille severs the connection at a frame boundary.
	SeverPerMille int
	// DupPerMille duplicates record, result and count frames (other frame types
	// are never duplicated: duplicating a handshake would be a protocol
	// violation rather than a transport fault).
	DupPerMille int
	// DelayPerMille stalls the frame for Delay before passing it on.
	DelayPerMille int
	// Delay is the stall length for delayed frames.
	Delay time.Duration
	// SeverAfterFrames, when positive, deterministically severs the
	// connection once that many outbound (written) frames have passed —
	// the reproducible mid-stream cut chaos tests anchor on.
	SeverAfterFrames int
}

type action int

const (
	actPass action = iota
	actDup
	actDelay
	actSever
)

// Per-direction salts decorrelate the two frame streams.
const (
	saltWrite = 0x57
	saltRead  = 0x52
)

// Conn is a fault-injecting io.ReadWriteCloser over an inner transport.
// It assumes the wire protocol's discipline: one reader and one writer per
// direction. Read and Write are internally serialized per direction and
// never block each other.
type Conn struct {
	inner   io.ReadWriteCloser
	cfg     Config
	severed atomic.Bool

	wmu     sync.Mutex
	wbuf    []byte // guarded by wmu: outbound bytes not yet parsed
	wframes int    // guarded by wmu: outbound frame count

	rmu     sync.Mutex
	rbuf    []byte // guarded by rmu: inbound bytes not yet parsed
	rout    []byte // guarded by rmu: parsed frames ready for the caller
	rframes int    // guarded by rmu: inbound frame count
}

// Wrap returns conn with cfg's faults injected on both directions.
func Wrap(conn io.ReadWriteCloser, cfg Config) *Conn {
	return &Conn{inner: conn, cfg: cfg}
}

// decide picks the fault for frame n of type typ in the direction salted
// by dir. Severs only fire on the write path; dropping frames the peer
// already flushed, as a TCP reset does, is left to a test wrapper in
// internal/remote.
func (c *Conn) decide(dir uint64, n int, typ byte) action {
	if dir == saltWrite && c.cfg.SeverAfterFrames > 0 && n+1 >= c.cfg.SeverAfterFrames {
		return actSever
	}
	r := tokens.SplitMix64(c.cfg.Seed ^ dir<<32 ^ uint64(n)<<8 ^ uint64(typ))
	v := int(r % 1000)
	if v < c.cfg.SeverPerMille {
		if dir == saltWrite {
			return actSever
		}
		return actPass
	}
	v -= c.cfg.SeverPerMille
	if v < c.cfg.DupPerMille {
		if typ == wire.TypeRecord || typ == wire.TypeResult || typ == wire.TypeCount {
			return actDup
		}
		return actPass
	}
	v -= c.cfg.DupPerMille
	if v < c.cfg.DelayPerMille {
		return actDelay
	}
	return actPass
}

// frameLen returns the byte length of the first complete frame in b, or 0
// when b holds only a partial frame.
func frameLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	payload, n := binary.Uvarint(b[1:])
	if n <= 0 {
		return 0 // length prefix incomplete
	}
	total := 1 + n + int(payload)
	if len(b) < total {
		return 0
	}
	return total
}

// sever cuts the outbound direction. When the transport supports
// half-close (TCP), the peer sees EOF while its own in-flight frames keep
// draining to our reader; otherwise the whole transport closes.
func (c *Conn) sever() {
	c.severed.Store(true)
	if hc, ok := c.inner.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite() //nolint:errcheck
		return
	}
	c.inner.Close()
}

// Write parses outbound bytes into frames and forwards each with its
// fault applied. Partial frames wait in the buffer for the next Write.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.severed.Load() {
		return 0, ErrSevered
	}
	c.wbuf = append(c.wbuf, p...)
	for {
		fl := frameLen(c.wbuf)
		if fl == 0 {
			return len(p), nil
		}
		frame := c.wbuf[:fl]
		act := c.decide(saltWrite, c.wframes, frame[0])
		c.wframes++
		switch act {
		case actSever:
			c.sever()
			return 0, ErrSevered
		case actDup:
			frame = append(append([]byte(nil), frame...), frame...)
		case actDelay:
			time.Sleep(c.cfg.Delay)
		}
		if _, err := c.inner.Write(frame); err != nil {
			return 0, err
		}
		c.wbuf = c.wbuf[fl:]
	}
}

// Read serves parsed (and possibly faulted) inbound frames. Reads keep
// working after a sever so the peer's already-flushed frames drain.
func (c *Conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for len(c.rout) == 0 {
		buf := make([]byte, 4096)
		n, err := c.inner.Read(buf)
		if n > 0 {
			c.rbuf = append(c.rbuf, buf[:n]...)
			for {
				fl := frameLen(c.rbuf)
				if fl == 0 {
					break
				}
				frame := c.rbuf[:fl]
				switch c.decide(saltRead, c.rframes, frame[0]) {
				case actDup:
					c.rout = append(c.rout, frame...)
				case actDelay:
					time.Sleep(c.cfg.Delay)
				}
				c.rframes++
				c.rout = append(c.rout, frame...)
				c.rbuf = c.rbuf[fl:]
			}
		}
		if err != nil {
			if len(c.rout) > 0 {
				break
			}
			return 0, err
		}
	}
	n := copy(p, c.rout)
	c.rout = c.rout[n:]
	return n, nil
}

// Close closes the inner transport.
func (c *Conn) Close() error {
	return c.inner.Close()
}
