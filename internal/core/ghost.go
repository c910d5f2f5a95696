package core

// Ghost derives a configuration for a counterfactual shadow of this
// cache: same estimator parameters (K, evictor, retained-information and
// metadata settings), a different capacity and policy, and every observer
// stripped. Shadows built from it — the admission tuner's θ arms, the
// what-if ghost matrix — replay reference streams without re-emitting
// events, tracing spans or deriving answers, so a ghost can safely run
// inside a sink of the live cache it shadows.
//
// The admitter is also cleared: admission falls back to the policy
// default (the static LNC-A test for LNCRA), and callers that want an
// adaptive ghost attach their own tuner's admitter.
func (cfg Config) Ghost(capacity int64, policy PolicyKind) Config {
	g := cfg
	g.Capacity = capacity
	g.Policy = policy
	g.Admitter = nil
	g.Sink = nil
	g.Tracer = nil
	g.Deriver = nil
	return g
}

// WarmInsert makes a set resident without charging a reference — the
// ghost-side image of the snapshot-restore path. The set is inserted only
// when it fits in free space (evicting for a restored set would let dead
// snapshot content push out observed references); a ghost too small to
// hold it simply starts colder, which is the honest counterfactual. One
// reference is recorded at the restore time so the profit estimators have
// a starting point, mirroring a freshly-admitted set's state. It reports
// whether the set became resident.
func (c *Cache) WarmInsert(req Request, sig uint64) bool {
	if req.Size <= 0 {
		return false
	}
	if t := req.Time; t > c.now {
		c.now = t
	}
	e := c.lookup(req.QueryID, sig)
	if e != nil && e.resident {
		return false
	}
	extraMeta := c.cfg.MetadataOverhead
	if e != nil {
		if _, isRetained := c.retained[e]; isRetained {
			extraMeta = 0 // its record is already charged
		}
	}
	free := c.cfg.Capacity - c.usedPayload - c.metaBytes()
	if free < req.Size+extraMeta {
		return false
	}
	if e == nil {
		e = &Entry{ID: req.QueryID, Sig: sig, Size: req.Size, Cost: req.Cost,
			Class: req.Class, Relations: req.Relations, rc: c.rc}
		e.window = newRefWindow(c.cfg.K)
	}
	e.window.record(c.now)
	c.insert(e, req)
	return true
}
