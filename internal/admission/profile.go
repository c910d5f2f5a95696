package admission

import "sync"

// Sample is one observed reference, in the canonical form the shadow
// evaluator replays: ID must be a core.CompressID result and Sig its
// core.Signature, exactly as the sharded layer routes requests.
type Sample struct {
	// ID is the compressed query ID.
	ID string
	// Sig is the signature of ID.
	Sig uint64
	// Size is the retrieved set size in bytes.
	Size int64
	// Cost is the execution cost in logical block reads.
	Cost float64
	// Time is the reference time in logical seconds.
	Time float64
	// Relations lists the query's base relations, so shadow caches honor
	// the same coherence invalidations the live cache does.
	Relations []string
}

// Profile is one producer's buffer of recent reference samples. Each shard
// owns a Profile and records every reference it serves into it; the Tuner
// drains all profiles when a tuning round fires. A Profile holds at most
// one window's worth of samples — if tuning falls behind, the oldest
// samples are overwritten, keeping memory bounded. The buffer grows with
// what it holds rather than starting at a full window: the producers of
// one tuner share a single window between them, so a sharded cache's
// profiles would otherwise each reserve a window they never fill.
//
// Record takes the profile's own mutex, never the tuner's, so producers
// only ever contend with the (rare) tuning-round drain, not with each
// other.
type Profile struct {
	t *Tuner

	mu      sync.Mutex
	samples []Sample // ring buffer once len == limit
	limit   int      // ring size: the tuner's window
	next    int      // ring write position
	wrapped bool     // true once the ring has overwritten old samples
}

// Record stores one reference sample and reports whether the tuner's
// window just filled — the caller should then run (or trigger) a tuning
// round via TuneOnce or TriggerAsync.
func (p *Profile) Record(s Sample) (windowFull bool) {
	p.mu.Lock()
	if len(p.samples) < p.limit {
		p.samples = append(p.samples, s)
	} else {
		p.samples[p.next] = s
		p.wrapped = true
	}
	p.next = (p.next + 1) % p.limit
	p.mu.Unlock()
	return p.t.noteRecorded()
}

// ordered returns a copy of the buffered samples in arrival order. The
// caller holds p.mu.
func (p *Profile) ordered() []Sample {
	if !p.wrapped {
		return append([]Sample(nil), p.samples...)
	}
	// Ring wrapped: oldest sample sits at the write position.
	out := make([]Sample, 0, len(p.samples))
	out = append(out, p.samples[p.next:]...)
	return append(out, p.samples[:p.next]...)
}

// drain removes and returns all buffered samples in arrival order.
func (p *Profile) drain() []Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.ordered()
	clear(p.samples) // drop the drained samples' strings
	p.samples = p.samples[:0]
	p.next = 0
	p.wrapped = false
	return out
}
