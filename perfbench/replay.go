package main

import (
	"fmt"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/shard"
	"repro/internal/trace"
)

// shards is the daemon's shard count (the serve default).
const shards = shard.DefaultShards

// baseConfig is the per-cache configuration `watchman serve` builds from
// its defaults: LNC-RA, K = 4, the scan evictor.
func baseConfig(capacity int64) core.Config {
	return core.Config{Capacity: capacity, K: 4, Policy: core.LNCRA, Evictor: core.ScanEvictor}
}

// serialCache is the daemon's cache without its concurrency: the same
// shard partition, capacities, shared deriver and shared tuner, driven by
// one goroutine with tuning rounds run inline. Replaying the daemon's
// references through it gives the cost-savings ratio the daemon should
// report, up to reordering and asynchronous tuning.
type serialCache struct {
	caches   []*core.Cache
	tuner    *admission.Tuner
	profiles []*admission.Profile
	deriver  core.Deriver
	// dropper is the deriver's relation purge, when it has one.
	dropper interface{ DropRelations(...string) }
}

// newSerial builds the partitioned cache. deriver may be nil; a tuner is
// attached when the workload runs adaptive admission.
func newSerial(s workloadSpec, capacity int64, deriver core.Deriver) (*serialCache, error) {
	sc := &serialCache{caches: make([]*core.Cache, shards), deriver: deriver}
	if dr, ok := deriver.(interface{ DropRelations(...string) }); ok {
		sc.dropper = dr
	}
	if s.adaptive {
		t, err := admission.New(admission.Config{Capacity: capacity, K: 4, Evictor: core.ScanEvictor})
		if err != nil {
			return nil, err
		}
		sc.tuner = t
	}
	per, rem := capacity/shards, capacity%shards
	for i := range sc.caches {
		cfg := baseConfig(per)
		if int64(i) < rem {
			cfg.Capacity++
		}
		cfg.Deriver = deriver
		if sc.tuner != nil {
			cfg.Admitter = sc.tuner.Admitter()
			sc.profiles = append(sc.profiles, sc.tuner.NewProfile())
		}
		c, err := core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("serial shard %d: %w", i, err)
		}
		sc.caches[i] = c
	}
	return sc, nil
}

// canonical is a record's request with its query ID precompressed, plus
// the signature that routes it.
type canonical struct {
	req core.Request
	sig uint64
}

// canonicalize precompresses every record once, outside any timing.
func canonicalize(recs []trace.Record, reqs []encoded) []canonical {
	out := make([]canonical, len(recs))
	for i := range recs {
		r := &recs[i]
		id := core.CompressID(r.QueryID)
		out[i] = canonical{
			req: core.Request{QueryID: id, Time: r.Time, Class: r.Class, Size: r.Size,
				Cost: r.Cost, Relations: r.Relations},
			sig: core.Signature(id),
		}
		if reqs[i].payload {
			out[i].req.Payload = reqs[i].token
		}
		if r.Plan != nil {
			out[i].req.Plan = r.Plan
		}
	}
	return out
}

// ref replays one reference.
func (sc *serialCache) ref(c *canonical) bool {
	hit := sc.lookup(c)
	sc.observe(c)
	return hit
}

// lookup is the reference itself: one core cache, chosen as the shard
// front routes.
func (sc *serialCache) lookup(c *canonical) bool {
	hit, _ := sc.caches[c.sig&(shards-1)].ReferenceCanonical(c.req, c.sig)
	return hit
}

// observe records the reference for the tuner after the fact, exactly as
// the shard front does, and runs a round inline when the window fills.
func (sc *serialCache) observe(c *canonical) {
	if sc.tuner == nil {
		return
	}
	r := &c.req
	if sc.profiles[c.sig&(shards-1)].Record(admission.Sample{ID: r.QueryID, Sig: c.sig, Size: r.Size,
		Cost: r.Cost, Time: r.Time, Relations: r.Relations}) {
		sc.tuner.TuneOnce()
	}
}

// invalidate mirrors shard.Sharded.Invalidate.
func (sc *serialCache) invalidate(rels ...string) {
	if sc.dropper != nil {
		sc.dropper.DropRelations(rels...)
	}
	for _, c := range sc.caches {
		c.Invalidate(rels...)
	}
	if sc.tuner != nil {
		sc.tuner.Invalidate(rels...)
	}
}

// stats aggregates the partition's counters.
func (sc *serialCache) stats() core.Stats {
	var st core.Stats
	for _, c := range sc.caches {
		st.Add(c.Stats())
	}
	return st
}

// check runs every partition's invariant check.
func (sc *serialCache) check() error {
	for i, c := range sc.caches {
		if err := c.CheckInvariants(); err != nil {
			return fmt.Errorf("serial shard %d: %w", i, err)
		}
	}
	return nil
}

// serialReplay replays refs in order, applying each invalidation before
// the reference at its position, and returns the aggregated counters.
func serialReplay(s workloadSpec, capacity int64, refs []canonical, invals []invalEvent) (core.Stats, error) {
	var deriver core.Deriver
	if s.derive {
		deriver = derive.New(derive.Config{})
	}
	sc, err := newSerial(s, capacity, deriver)
	if err != nil {
		return core.Stats{}, err
	}
	k := 0
	for i := range refs {
		for k < len(invals) && invals[k].pos <= int64(i) {
			sc.invalidate(invals[k].rels...)
			k++
		}
		sc.ref(&refs[i])
	}
	for ; k < len(invals); k++ {
		sc.invalidate(invals[k].rels...)
	}
	return sc.stats(), sc.check()
}
