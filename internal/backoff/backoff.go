// Package backoff computes capped exponential retry delays with
// deterministic, decorrelating jitter: every delay d is spread over
// [d/2, d).
//
// Two consumers share it: the osproc runner's in-quantum signal retries,
// seeded from the runner's start instant, and the coord shard agent's
// coordinator RPCs, seeded from the shard name. The second is why jitter
// exists at all — a fleet of shards that lose their coordinator at the
// same instant would otherwise retry in lockstep and reconnect as a
// thundering herd. The jitter is a pure function of (Seed, key,
// attempt), not a shared RNG: delays are reproducible in tests (fix the
// seed), decorrelated across processes (seed from process identity), and
// computable concurrently without locks.
package backoff

import "time"

// Policy describes one retry schedule. Build it with New.
type Policy struct {
	// Base is the first delay; attempt n waits Base << (n-1), capped.
	Base time.Duration
	// Cap bounds every delay (inclusive). Cap <= 0 means uncapped
	// growth is still clamped at a safe ceiling to avoid overflow.
	Cap time.Duration
	// Seed decorrelates jitter streams. Two policies with different
	// seeds produce different schedules for the same key and attempt.
	Seed uint64
}

// New builds a Policy with the given base, cap and jitter seed.
func New(base, cap time.Duration, seed uint64) Policy {
	return Policy{Base: base, Cap: cap, Seed: seed}
}

// jitter is the fraction of each delay that is randomized.
const jitter = 0.5

// maxShift bounds the exponential term so Base << n never overflows.
const maxShift = 32

// Delay returns the sleep before retry attempt (1-based) on the stream
// identified by key (e.g. a PID, or a hashed endpoint). attempt values
// below 1 are treated as 1.
func (p Policy) Delay(key uint64, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	if d <= 0 {
		d = time.Millisecond
	}
	shift := attempt - 1
	if shift > maxShift {
		shift = maxShift
	}
	d <<= shift
	if d <= 0 { // overflow despite the shift bound (huge Base)
		d = p.Cap
	}
	if p.Cap > 0 && d > p.Cap {
		d = p.Cap
	}
	// frac in [0, 1): a splitmix64 hash of the stream coordinates.
	frac := float64(mix(p.Seed^key^uint64(attempt)*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	return time.Duration(float64(d) * (1 - jitter + jitter*frac))
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
