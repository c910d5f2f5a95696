package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/flight"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/whatif"
)

// The traced run is a ladder of rungs. Each rung replays the same slice
// of the workload's references through one more layer than the rung it
// wraps, timing every call from this file; a layer's self time is the
// median difference between adjacent rungs. The loopback rungs add spans
// from a timing middleware inside the handler, whose self time is the
// client span minus that child. Every rung checks the cache's invariants
// when it finishes.

// tracer keeps every span of the traced run in memory.
type tracer struct {
	spans  []span
	nextID atomic.Int64
}

func (t *tracer) id() int64 { return t.nextID.Add(1) }

// rung is one ladder rung's per-call timings, in reference order.
type rung struct {
	name   string
	dur    []int64
	hit    []bool
	allocs float64 // heap allocations per call
}

func (r rung) med() int64 { return median(r.dur) }

func (r rung) mean() float64 { return meanOf(r.dur) }

// timeCalls times call(i) for every reference index in idx, recording a
// span per call under a root span for the rung. after, when not nil, runs
// untimed after each call.
func (t *tracer) timeCalls(name string, idx []int, call func(i int) bool, after func(k, i int)) rung {
	r := rung{name: name, dur: make([]int64, len(idx)), hit: make([]bool, len(idx))}
	spans := make([]span, len(idx))
	root := t.id()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := nanos()
	for k, i := range idx {
		t0 := nanos()
		r.hit[k] = call(i)
		t1 := nanos()
		r.dur[k] = t1 - t0
		spans[k] = span{ID: t.id(), Parent: root, Req: int64(i), Name: name, Start: t0, End: t1}
		if after != nil {
			after(k, i)
		}
	}
	end := nanos()
	runtime.ReadMemStats(&m1)
	r.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(max(1, len(idx)))
	t.spans = append(t.spans, span{ID: root, Name: "rung:" + name, Start: start, End: end})
	t.spans = append(t.spans, spans...)
	return r
}

// timeCallsParallel is timeCalls with n goroutines, goroutine g taking
// every n-th index, under GOMAXPROCS n.
func (t *tracer) timeCallsParallel(name string, idx []int, n int, call func(i int) bool) rung {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	r := rung{name: name, dur: make([]int64, len(idx)), hit: make([]bool, len(idx))}
	spans := make([]span, len(idx))
	root := t.id()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := nanos()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := g; k < len(idx); k += n {
				t0 := nanos()
				r.hit[k] = call(idx[k])
				t1 := nanos()
				r.dur[k] = t1 - t0
				spans[k] = span{ID: t.id(), Parent: root, Req: int64(idx[k]), Name: name, Start: t0, End: t1}
			}
		}()
	}
	wg.Wait()
	end := nanos()
	runtime.ReadMemStats(&m1)
	r.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(max(1, len(idx)))
	t.spans = append(t.spans, span{ID: root, Name: "rung:" + name, Start: start, End: end})
	t.spans = append(t.spans, spans...)
	return r
}

// sigSink keeps the compress rung's results live.
var sigSink uint64

// timerOverhead is the median cost of one pair of clock reads, which
// every per-call timing includes; absolute per-call figures subtract it.
func timerOverhead() int64 {
	d := make([]int64, 20000)
	for i := range d {
		t0 := nanos()
		d[i] = nanos() - t0
	}
	return median(d)
}

// timedDeriver wraps the workload's deriver to time every Derive call. It
// forwards the event stream and relation purges so the wrapped deriver
// indexes exactly what it would unwrapped.
type timedDeriver struct {
	d       *derive.Deriver
	mu      sync.Mutex
	calls   []int64
	derived int64
	// cur accumulates derive time since the last take, for the serial
	// core rung to subtract from its calls.
	cur atomic.Int64
}

func (t *timedDeriver) Derive(req core.Request) (core.Derivation, bool) {
	t0 := nanos()
	d, ok := t.d.Derive(req)
	dt := nanos() - t0
	t.cur.Add(dt)
	t.mu.Lock()
	t.calls = append(t.calls, dt)
	if ok {
		t.derived++
	}
	t.mu.Unlock()
	return d, ok
}

func (t *timedDeriver) Emit(ev core.Event)                { t.d.Emit(ev) }
func (t *timedDeriver) DropRelations(relations ...string) { t.d.DropRelations(relations...) }

// take returns and clears the derive time accumulated since the last take.
func (t *timedDeriver) take() int64 { return t.cur.Swap(0) }

// ladderInput fixes the references the rungs replay: warm ones untimed
// (or the boot snapshot restored), then the timed slice.
type ladderInput struct {
	p    *prepared
	warm []int // replayed untimed before timing
	idx  []int // timed
	// raw holds uncompressed requests for the layers that compress
	// themselves; canon the precompressed ones.
	raw   []core.Request
	canon []canonical
	// bodies are the JSON bodies of the timed requests (for the handler
	// rungs), indexed like canon.
	bodies [][]byte
}

func newLadderInput(p *prepared) *ladderInput {
	in := &ladderInput{p: p, canon: p.canon, raw: make([]core.Request, len(p.canon)), bodies: make([][]byte, len(p.canon))}
	for i := range p.canon {
		in.raw[i] = p.canon[i].req
		in.raw[i].QueryID = p.tr.Records[i].QueryID
		if w := p.reqs[i].wire; w != nil {
			_, body, _ := bytes.Cut(w, []byte("\r\n\r\n"))
			in.bodies[i] = body
		}
	}
	start := p.warmN
	if p.pristine == nil {
		// Without a boot snapshot the daemon warms up on the warm-up
		// phase's references; the rungs do the same.
		start = len(p.plan.warmup.due)
		for i := 0; i < start; i++ {
			in.warm = append(in.warm, i)
		}
	}
	n := min(len(p.plan.nominal.due), len(p.canon)-start)
	for i := start; i < start+n; i++ {
		in.idx = append(in.idx, i)
	}
	return in
}

// newRungCache builds a daemon-shaped in-process cache for a shard-level
// rung, restored from the boot snapshot or warmed on the warm references.
func (in *ladderInput) newRungCache(cfg shard.Config) (*shard.Sharded, error) {
	sc, err := newSharded(in.p.spec, in.p.capacity, cfg)
	if err != nil {
		return nil, err
	}
	if in.p.pristine != nil {
		if _, err := sc.Restore(bytes.NewReader(in.p.pristine)); err != nil {
			sc.Close()
			return nil, err
		}
	}
	for _, i := range in.warm {
		sc.Reference(in.raw[i])
	}
	return sc, nil
}

// tracedReport is the traced run's outcome.
type tracedReport struct {
	p         *prepared
	daemonCmd []string
	goVersion string
	timerNs   int64
	timedRefs int
	metrics   []namedMetric
	budget    []budgetRow
	ladderSum float64 // µs
	p50Untr   float64 // ms
	p50Tr     float64 // ms
	p50Null   float64 // ms: the null daemon at the nominal rate
	gate      []string
	attempted int64
	failed    int64
	spansPath string
}

// budgetRow is one line of the per-layer budget table.
type budgetRow struct {
	layer         string
	medUs, meanUs float64 // median and mean self time
	allocs        float64
	inSum         bool
	note          string
}

// runTraced runs the layer ladder and the daemon-side traced measurements.
func runTraced(e env, p *prepared, seconds float64) (*tracedReport, error) {
	s := p.spec
	in := newLadderInput(p)
	tr := &tracer{}
	t := &tracedReport{p: p, timedRefs: len(in.idx), timerNs: timerOverhead()}
	add := func(name string, v float64, unit, note string) {
		t.metrics = append(t.metrics, namedMetric{name: name, metric: metric{v, unit}, note: note, gated: true})
	}
	fail := func(format string, args ...any) { t.gate = append(t.gate, fmt.Sprintf(format, args...)) }
	calls := int64(0)
	keep := func(r rung) rung {
		calls += int64(len(r.dur))
		return r
	}

	// Rung 0: ID compression and signature on the raw query strings.
	compress := keep(tr.timeCalls("compress", in.idx, func(i int) bool {
		sigSink += core.Signature(core.CompressID(in.raw[i].QueryID))
		return false
	}, nil))
	add("core.compress_ns", float64(compress.med()-t.timerNs), "ns", "median CompressID+Signature per raw ID")
	add("core.compress_allocs", compress.allocs, "count", "allocations per raw ID")

	// Rung 1: the core caches, serially, IDs precompressed, partitioned
	// like the daemon's shards.
	var coreDeriver *timedDeriver
	var deriver core.Deriver
	if s.derive {
		coreDeriver = &timedDeriver{d: derive.New(derive.Config{})}
		deriver = coreDeriver
	}
	serial, err := newSerial(s, p.capacity, deriver)
	if err != nil {
		return nil, err
	}
	if p.pristine != nil {
		snap, err := persist.Read(bytes.NewReader(p.pristine))
		if err != nil {
			return nil, err
		}
		for i, c := range serial.caches {
			if _, err := c.RestoreState(snap.Shards[i]); err != nil {
				return nil, err
			}
		}
	}
	for _, i := range in.warm {
		serial.ref(&in.canon[i])
	}
	if coreDeriver != nil {
		coreDeriver.take()
	}
	before := serial.stats()
	// deriveInCall is the derive time inside each timed call; the rung is
	// serial, so the wrapper's running total since the previous call is
	// exactly this call's. The tuner does not run while the rung is timed
	// (its rounds run off the request path in the daemon), so the rung
	// admits under the θ the warm-up reached.
	deriveInCall := make([]int64, len(in.idx))
	coreRung := keep(tr.timeCalls("core", in.idx, func(i int) bool {
		return serial.lookup(&in.canon[i])
	}, func(k, _ int) {
		if coreDeriver != nil {
			deriveInCall[k] = coreDeriver.take()
		}
	}))
	after := serial.stats()
	if err := serial.check(); err != nil {
		fail("core rung invariants: %v", err)
	}
	var hitD, missD, coreSelf []int64
	for j, d := range coreRung.dur {
		if coreRung.hit[j] {
			hitD = append(hitD, d-t.timerNs)
		} else {
			missD = append(missD, d-t.timerNs)
		}
		coreSelf = append(coreSelf, d-t.timerNs-deriveInCall[j])
	}
	missSorted := sortedCopy(missD)
	missTail, missQ := tailOrMedian(missSorted, 0.99)
	add("core.hit_ns", float64(median(hitD)), "ns", fmt.Sprintf("median of %d hit calls", len(hitD)))
	add("core.allocs_per_ref", coreRung.allocs, "count", "allocations per ReferenceCanonical")
	add("core.miss_ns_p50", float64(quantile(missSorted, 0.5)), "ns", fmt.Sprintf("median of %d miss calls", len(missD)))
	add("core.miss_ns_p99", float64(missTail), "ns", tailLabel(missQ)+" of the miss calls")
	add("core.evictions_per_kref", float64(after.Evictions-before.Evictions)/(float64(len(in.idx))/1000), "count", "evictions per 1000 timed references")
	coreCSR := after.CostSavingsRatio()
	if s.adaptive {
		// The exact replay tunes inline at every full window.
		st, err := serialReplay(s, p.capacity, in.canon[:in.idx[len(in.idx)-1]+1], nil)
		if err != nil {
			return nil, err
		}
		coreCSR = st.CostSavingsRatio()
	}
	add("core.csr", coreCSR, "ratio", "serial partitioned replay, warm-up plus the timed slice")

	// Rung 2: the sharded front, one goroutine, raw IDs.
	baseCfg := func() (shard.Config, *timedDeriver) {
		if !s.derive {
			return shard.Config{}, nil
		}
		td := &timedDeriver{d: derive.New(derive.Config{})}
		return shard.Config{Deriver: td}, td
	}
	shardRung := func(name string, cfg shard.Config, parallel int, after func(*shard.Sharded)) (rung, error) {
		sc, err := in.newRungCache(cfg)
		if err != nil {
			return rung{}, err
		}
		defer sc.Close()
		call := func(i int) bool {
			hit, _ := sc.Reference(in.raw[i])
			return hit
		}
		var r rung
		if parallel > 1 {
			r = tr.timeCallsParallel(name, in.idx, parallel, call)
		} else {
			r = tr.timeCalls(name, in.idx, call, nil)
		}
		sc.Drain()
		if err := sc.CheckInvariants(); err != nil {
			fail("%s rung invariants: %v", name, err)
		}
		if after != nil {
			after(sc)
		}
		return keep(r), nil
	}
	cfg, shardDeriver := baseCfg()
	shard1, err := shardRung("shard", cfg, 1, nil)
	if err != nil {
		return nil, err
	}
	shardSelf := rungSelf(shard1.dur, coreRung.dur) - compress.med()
	add("shard.self_ns", float64(shardSelf), "ns", "median shard call − median core call − compress")
	add("shard.allocs_per_ref", shard1.allocs-coreRung.allocs-compress.allocs, "count", "shard rung allocations minus core and compress")

	nproc := runtime.NumCPU()
	cfg, _ = baseCfg()
	shardN, err := shardRung("shard-contended", cfg, nproc, nil)
	if err != nil {
		return nil, err
	}
	add("shard.contended_ns", float64(rungSelf(shardN.dur, shard1.dur)), "ns", fmt.Sprintf("median with %d goroutines − median with 1", nproc))

	cfg, _ = baseCfg()
	cfg.Buffered = true
	var shed float64
	buffered, err := shardRung("shard-buffered", cfg, nproc, func(sc *shard.Sharded) {
		st := sc.Stats()
		if st.References > 0 {
			shed = float64(st.PromotesSkipped) / float64(st.References)
		}
	})
	if err != nil {
		return nil, err
	}
	add("shard.buffered_ns", float64(rungSelf(buffered.dur, shardN.dur)), "ns", fmt.Sprintf("median buffered − median locked, both with %d goroutines", nproc))
	add("shard.promotes_shed_frac", shed, "ratio", "Stats.PromotesSkipped / References in the buffered rung")

	// Add-on rungs: each attaches one observer to the shard rung.
	cfg, _ = baseCfg()
	reg := telemetry.NewRegistry()
	cfg.Registry = reg
	withReg, err := shardRung("shard+telemetry", cfg, 1, nil)
	if err != nil {
		return nil, err
	}
	scrapes := make([]int64, 20)
	for j := range scrapes {
		t0 := nanos()
		if err := reg.WritePrometheus(io.Discard); err != nil {
			return nil, err
		}
		scrapes[j] = nanos() - t0
	}
	add("telemetry.overhead_ns", float64(rungSelf(withReg.dur, shard1.dur)), "ns", "median with Registry − median without")
	add("telemetry.scrape_ms", msOf(median(scrapes)), "ms", "median Registry.WritePrometheus after the rung")

	cfg, _ = baseCfg()
	cfg.Recorder = flight.New(flight.Config{})
	withFlight, err := shardRung("shard+flight", cfg, 1, nil)
	if err != nil {
		return nil, err
	}
	add("flight.overhead_ns", float64(rungSelf(withFlight.dur, shard1.dur)), "ns", "median with a default-sampled recorder − median without")

	cfg, _ = baseCfg()
	matrix, err := whatif.New(whatif.Config{Base: baseConfig(p.capacity)})
	if err != nil {
		return nil, err
	}
	cfg.WhatIf = matrix
	var drainNs int64
	var rungShed float64
	withWhatIf, err := shardRung("shard+whatif", cfg, 1, func(*shard.Sharded) {
		t0 := nanos()
		matrix.Drain()
		drainNs = nanos() - t0
		rep := matrix.Report(0)
		if rep.RefsSampled > 0 {
			rungShed = float64(rep.RefsShed) / float64(rep.RefsSampled)
		}
	})
	if err != nil {
		return nil, err
	}
	add("whatif.feed_ns", float64(rungSelf(withWhatIf.dur, shard1.dur)), "ns", "median with the ghost Matrix − median without")
	add("whatif.drain_ms", msOf(drainNs), "ms", "Matrix.Drain right after the rung")

	// Derivation: from the daemon-shaped rungs when the workload derives,
	// else from a rung of its own on ask-only requests (a request that
	// carries its payload is never derived).
	td := shardDeriver
	if td == nil {
		td = &timedDeriver{d: derive.New(derive.Config{})}
		sc, err := in.newRungCache(shard.Config{Deriver: td})
		if err != nil {
			return nil, err
		}
		td.mu.Lock()
		td.calls, td.derived = nil, 0
		td.mu.Unlock()
		keep(tr.timeCalls("shard+derive", in.idx, func(i int) bool {
			req := in.raw[i]
			req.Payload = nil
			hit, _ := sc.Reference(req)
			return hit
		}, nil))
		if err := sc.CheckInvariants(); err != nil {
			fail("shard+derive rung invariants: %v", err)
		}
		sc.Close()
	}
	dsorted := sortedCopy(td.calls)
	dTail, dQ := tailOrMedian(dsorted, 0.99)
	derivedFrac := 0.0
	if len(td.calls) > 0 {
		derivedFrac = float64(td.derived) / float64(len(td.calls))
	}
	add("derive.derive_ns_p50", float64(quantile(dsorted, 0.5)), "ns", fmt.Sprintf("median of %d Derive calls", len(td.calls)))
	add("derive.derive_ns_p99", float64(dTail), "ns", tailLabel(dQ)+" of the Derive calls")
	add("derive.candidates", float64(td.d.Candidates()), "count", "Deriver.Candidates after the rung")
	add("derive.derived_frac", derivedFrac, "ratio", "successful derivations / Derive calls")

	// Persistence: stream a snapshot of a warm daemon-shaped cache, then
	// restore it into a fresh one.
	if err := persistRung(in, add); err != nil {
		return nil, err
	}

	// Admission: time TuneOnce over the workload's references.
	if err := admissionRung(in, add); err != nil {
		return nil, err
	}

	// Rung 3: the HTTP handler through ServeHTTP, no socket.
	cfg, _ = baseCfg()
	sc, err := in.newRungCache(cfg)
	if err != nil {
		return nil, err
	}
	handler := server.New(sc).Handler()
	rw := &discardWriter{h: http.Header{}}
	var rd bytes.Reader
	u, _ := url.Parse("/v1/reference")
	req := &http.Request{Method: "POST", URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}}, Host: "bench", RequestURI: "/v1/reference"}
	badHandler := 0
	srvRung := keep(tr.timeCalls("server", in.idx, func(i int) bool {
		rd.Reset(in.bodies[i])
		req.Body = io.NopCloser(&rd)
		req.ContentLength = int64(len(in.bodies[i]))
		rw.reset()
		handler.ServeHTTP(rw, req)
		if rw.code != 200 {
			badHandler++
		}
		return false
	}, nil))
	if err := sc.CheckInvariants(); err != nil {
		fail("server rung invariants: %v", err)
	}
	sc.Close()
	if badHandler > 0 {
		fail("%d handler calls answered other than 200", badHandler)
	}
	add("server.self_ns", float64(rungSelf(srvRung.dur, shard1.dur)), "ns", "median ServeHTTP − median shard call")
	add("server.allocs_per_ref", srvRung.allocs-shard1.allocs, "count", "handler rung allocations minus the shard rung's")

	// Rungs 4 and 5: loopback HTTP against the real handler and a null
	// handler, one request at a time, with a timing middleware.
	cfg, _ = baseCfg()
	sc, err = in.newRungCache(cfg)
	if err != nil {
		return nil, err
	}
	loopIdx := in.idx[:min(len(in.idx), 4000)]
	sock, err := loopbackRung(tr, "loopback", server.New(sc).Handler(), in, loopIdx)
	if err != nil {
		return nil, err
	}
	if err := sc.CheckInvariants(); err != nil {
		fail("loopback rung invariants: %v", err)
	}
	sc.Close()
	null, err := loopbackRung(tr, "loopback-null", nullHandler(), in, loopIdx)
	if err != nil {
		return nil, err
	}
	add("server.socket_self_us", float64(median(sock))/1e3, "us", "median in-process loopback client span − its handler child span")

	// The daemon: untraced vs traced loopback p50 at the nominal rate,
	// then what the operator sees once the load stops.
	dm, err := daemonRungs(e, in, tr, seconds, t, add)
	if err != nil {
		return nil, err
	}
	t.attempted = calls + dm.attempted
	t.failed = dm.failed
	add("client.self_us", t.p50Null*1e3, "us", fmt.Sprintf("open-loop p50 against the null daemon at %g req/s: client, transport and wake-ups", s.nominal))

	// The budget table and its reconciliation with the untraced p50.
	coreMed := float64(median(coreSelf))
	deriveMed, deriveMean := float64(median(deriveInCall)), meanOf(deriveInCall)
	coreMean := coreRung.mean() - float64(t.timerNs) - deriveMean
	row := func(layer string, med, mean, allocs float64, inSum bool, note string) {
		t.budget = append(t.budget, budgetRow{layer: layer, medUs: med / 1e3, meanUs: mean / 1e3, allocs: allocs, inSum: inSum, note: note})
	}
	row("client+transport (null daemon)", t.p50Null*1e6, 0, 0, true, "open-loop p50 against a process whose handler does nothing")
	row("  of which socket, no wake-ups", float64(median(sock)), meanOf(sock), 0, false, fmt.Sprintf("in-process loopback client − handler span; null handler %.1f µs", float64(median(null))/1e3))
	row("server (HTTP decode/encode)", float64(rungSelf(srvRung.dur, shard1.dur)), srvRung.mean()-shard1.mean(), srvRung.allocs-shard1.allocs, true, "ServeHTTP − shard")
	row("shard (route, lock, observe)", float64(shardSelf), shard1.mean()-coreRung.mean()-compress.mean(), shard1.allocs-coreRung.allocs-compress.allocs, true, "shard − core − compress")
	row("compress (CompressID+Signature)", float64(compress.med()-t.timerNs), compress.mean()-float64(t.timerNs), compress.allocs, true, "")
	row("core (lookup/admit/evict)", coreMed, coreMean, coreRung.allocs, true, "serial ReferenceCanonical, derive time excluded")
	row("derive", deriveMed, deriveMean, 0, s.derive, servedNote(s.derive, "-derive"))
	row("telemetry", float64(rungSelf(withReg.dur, shard1.dur)), withReg.mean()-shard1.mean(), withReg.allocs-shard1.allocs, true, "serve default")
	row("whatif feed", float64(rungSelf(withWhatIf.dur, shard1.dur)), withWhatIf.mean()-shard1.mean(), withWhatIf.allocs-shard1.allocs, s.whatif, servedNote(s.whatif, "-whatif"))
	row("flight recorder", float64(rungSelf(withFlight.dur, shard1.dur)), withFlight.mean()-shard1.mean(), withFlight.allocs-shard1.allocs, false, servedNote(false, "-debug"))
	for _, b := range t.budget {
		if b.inSum {
			t.ladderSum += b.medUs
		}
	}
	unexplained := (t.p50Untr*1e3 - t.ladderSum) / (t.p50Untr * 1e3)
	add("ladder.unexplained_frac", unexplained, "ratio", fmt.Sprintf("(untraced p50 %.1f µs − ladder sum %.1f µs) / untraced p50", t.p50Untr*1e3, t.ladderSum))
	if !s.whatif {
		add("whatif.shed_frac", rungShed, "ratio", "refs_shed / refs_sampled of the in-process rung (the daemon runs without -whatif)")
	}
	t.spansPath = filepath.Join(e.out, fmt.Sprintf("spans-%s-%d.csv", s.name, p.seed))
	if err := writeSpans(t.spansPath, tr.spans); err != nil {
		return nil, err
	}
	return t, nil
}

func meanOf(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

func servedNote(served bool, flag string) string {
	if served {
		return "served by this workload's daemon"
	}
	return "not served (daemon runs without " + flag + "); excluded from the sum"
}

// discardWriter is a reusable http.ResponseWriter for the handler rung.
type discardWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *discardWriter) reset() {
	clear(w.h)
	w.code = 0
	w.buf.Reset()
}
func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = 200
	}
	return w.buf.Write(b)
}

// nullHandler answers every request with a fixed miss, reading the body
// as a real handler would.
func nullHandler() http.Handler {
	body := []byte("{\"hit\":false}\n")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a short body read never fails here
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	})
}

// loopbackRung serves h behind a timing middleware on a loopback socket
// and sends the timed requests one at a time; it returns each request's
// client span minus its handler child span.
func loopbackRung(tr *tracer, name string, h http.Handler, in *ladderInput, idx []int) ([]int64, error) {
	var mu sync.Mutex
	var child []span
	mw := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := nanos()
		h.ServeHTTP(w, r)
		t1 := nanos()
		mu.Lock()
		child = append(child, span{Name: name + ".handler", Start: t0, End: t1})
		mu.Unlock()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mw}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	c, err := dial(ln.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	unlock := lockPreciseTimer()
	defer unlock()
	root := tr.id()
	start := nanos()
	client := make([]span, len(idx))
	for k, i := range idx {
		t0 := nanos()
		status, _, err := c.do(in.p.reqs[i].wire, requestTimeout)
		t1 := nanos()
		if err != nil || status != 200 {
			return nil, fmt.Errorf("%s request %d: status %d, %v", name, i, status, err)
		}
		client[k] = span{ID: tr.id(), Parent: root, Req: int64(i), Name: name + ".client", Start: t0, End: t1}
	}
	end := nanos()
	mu.Lock()
	defer mu.Unlock()
	if len(child) != len(client) {
		return nil, fmt.Errorf("%s: %d handler spans for %d requests", name, len(child), len(client))
	}
	self := make([]int64, len(client))
	tr.spans = append(tr.spans, span{ID: root, Name: "rung:" + name, Start: start, End: end})
	for k := range client {
		child[k].ID, child[k].Parent, child[k].Req = tr.id(), client[k].ID, client[k].Req
		self[k] = selfTime(client[k], child[k:k+1])
	}
	tr.spans = append(tr.spans, client...)
	tr.spans = append(tr.spans, child...)
	return self, nil
}

// persistRung measures streaming a snapshot of a warm daemon-shaped cache
// and restoring it, three times each, reporting medians.
func persistRung(in *ladderInput, add func(string, float64, string, string)) error {
	cfg := shard.Config{}
	if in.p.spec.derive {
		cfg.Deriver = derive.New(derive.Config{})
	}
	sc, err := in.newRungCache(cfg)
	if err != nil {
		return err
	}
	defer sc.Close()
	for _, i := range in.idx {
		sc.Reference(in.raw[i])
	}
	var snapMs, pauseMs, restoreMs []float64
	var buf bytes.Buffer
	resident := sc.Resident()
	for j := 0; j < 3; j++ {
		buf.Reset()
		t0 := nanos()
		info, err := sc.StreamSnapshot(&buf)
		if err != nil {
			return err
		}
		snapMs = append(snapMs, msOf(nanos()-t0))
		pauseMs = append(pauseMs, float64(info.MaxLockPause.Nanoseconds())/1e6)
		fresh, err := newSharded(in.p.spec, in.p.capacity, shard.Config{})
		if err != nil {
			return err
		}
		t1 := nanos()
		_, err = fresh.Restore(bytes.NewReader(buf.Bytes()))
		restoreMs = append(restoreMs, msOf(nanos()-t1))
		if err == nil {
			err = fresh.CheckInvariants()
		}
		fresh.Close()
		if err != nil {
			return fmt.Errorf("restore rung: %w", err)
		}
	}
	add("persist.snapshot_ms", medianFloat(snapMs), "ms", fmt.Sprintf("median StreamSnapshot of %d resident sets", resident))
	add("persist.max_lock_pause_ms", medianFloat(pauseMs), "ms", "median of the snapshots' longest shard-lock hold")
	add("persist.restore_ms", medianFloat(restoreMs), "ms", "median shard.Restore into a fresh cache")
	add("persist.bytes_per_entry", float64(buf.Len())/float64(max(1, resident)), "bytes", "snapshot bytes per resident set")
	return nil
}

// admissionRung feeds the workload's references to a tuner sized like the
// daemon's and times every TuneOnce.
func admissionRung(in *ladderInput, add func(string, float64, string, string)) error {
	tn, err := admission.New(admission.Config{Capacity: in.p.capacity, K: 4, Evictor: core.ScanEvictor})
	if err != nil {
		return err
	}
	prof := tn.NewProfile()
	var rounds []float64
	feed := func(i int) {
		c := &in.canon[i]
		if prof.Record(admission.Sample{ID: c.req.QueryID, Sig: c.sig, Size: c.req.Size, Cost: c.req.Cost,
			Time: c.req.Time, Relations: c.req.Relations}) {
			t0 := nanos()
			tn.TuneOnce()
			rounds = append(rounds, msOf(nanos()-t0))
		}
	}
	for i := 0; i < len(in.warm); i++ {
		feed(in.warm[i])
	}
	for _, i := range in.idx {
		feed(i)
	}
	if len(rounds) == 0 {
		t0 := nanos()
		tn.TuneOnce()
		rounds = append(rounds, msOf(nanos()-t0))
	}
	add("admission.round_ms", medianFloat(rounds), "ms", fmt.Sprintf("median of %d timed TuneOnce rounds (window %d)", len(rounds), tn.Window()))
	return nil
}

// writeSpans writes the trace as CSV: id, parent, request, name, start
// and end in nanoseconds from the process epoch.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var b []byte
	b = append(b, "id,parent,req,name,start_ns,end_ns\n"...)
	for _, s := range spans {
		b = strconv.AppendInt(b, s.ID, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.Parent, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.Req, 10)
		b = append(b, ',')
		b = append(b, s.Name...)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.Start, 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, s.End, 10)
		b = append(b, '\n')
		if len(b) > 1<<20 {
			if _, err := f.Write(b); err != nil {
				f.Close()
				return err
			}
			b = b[:0]
		}
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// daemonOut is the daemon side of the traced run.
type daemonOut struct {
	attempted, failed int64
}

// daemonRungs boots the daemon, alternates untraced and traced open-loop
// phases at the nominal rate, and then measures how long the operator
// endpoints take to settle once the load stops.
func daemonRungs(e env, in *ladderInput, tr *tracer, seconds float64, t *tracedReport, add func(string, float64, string, string)) (daemonOut, error) {
	p := in.p
	s := p.spec
	var out daemonOut
	d, _, err := p.boot(e, "traced")
	if err != nil {
		return out, err
	}
	defer func() {
		if d.alive() {
			d.kill()
		}
	}()
	t.daemonCmd = d.args
	op, err := dial(d.addr)
	if err != nil {
		return out, err
	}
	defer op.Close()
	var hz server.HealthzResponse
	if err := getJSON(op, "/healthz", &hz); err != nil {
		return out, err
	}
	t.goVersion = hz.GoVersion
	prevProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prevProcs)
	loop := &openLoop{reqs: p.reqs, next: p.warmN, spanID: &tr.nextID}
	for i := 0; i < loadConns(); i++ {
		c, err := dial(d.addr)
		if err != nil {
			return out, err
		}
		defer c.Close()
		loop.conns = append(loop.conns, c)
	}
	all := refTally{}
	if res, err := loop.run(p.plan.warmup); err != nil {
		return out, err
	} else {
		all.add(res.tally)
	}

	// The null daemon: the same generator at the same rate against a
	// process whose handler does nothing.
	self, err := os.Executable()
	if err != nil {
		return out, err
	}
	nd, _, err := startServer(self, func(addr string) []string { return []string{"-null-serve", addr} },
		filepath.Join(e.out, fmt.Sprintf("null-%s-%d.log", s.name, p.seed)))
	if err != nil {
		return out, err
	}
	defer func() {
		if nd.alive() {
			nd.kill()
		}
	}()
	nullLoop := &openLoop{reqs: p.reqs, next: p.warmN}
	for i := 0; i < loadConns(); i++ {
		c, err := dial(nd.addr)
		if err != nil {
			return out, err
		}
		defer c.Close()
		nullLoop.conns = append(nullLoop.conns, c)
	}

	// Six phases share half the measuring time in the order untraced,
	// null, traced, traced, null, untraced: a drift over the run (host
	// noise, a cache that keeps growing) moves all three kinds alike.
	const (
		untraced = iota
		nullPhase
		tracedPhase
	)
	order := []int{untraced, nullPhase, tracedPhase, tracedPhase, nullPhase, untraced}
	rng := rand.New(rand.NewSource(p.seed ^ 0x7ace))
	dur := int64(seconds * 1e9 / 12)
	var untr, trc, null []int64
	for j, kind := range order {
		ph := phase{name: fmt.Sprintf("ladder-%d", j), rate: s.nominal, dur: dur, due: poisson(rng, s.nominal, dur)}
		l := loop
		if kind == nullPhase {
			l = nullLoop
		}
		if l.next+len(ph.due) > len(p.reqs) {
			return out, fmt.Errorf("traced run ran out of requests at phase %d", j)
		}
		l.traced = kind == tracedPhase
		res, err := l.run(ph)
		if err != nil {
			return out, err
		}
		switch kind {
		case untraced:
			all.add(res.tally)
			untr = append(untr, res.lat...)
		case nullPhase:
			null = append(null, res.lat...)
			out.attempted += int64(len(res.lat))
			out.failed += res.tally.failed
		case tracedPhase:
			all.add(res.tally)
			trc = append(trc, res.lat...)
			tr.spans = append(tr.spans, res.spans...)
		}
	}
	t.p50Untr, t.p50Tr, t.p50Null = msOf(median(untr)), msOf(median(trc)), msOf(median(null))
	if err := nd.stop(); err != nil {
		return out, fmt.Errorf("null daemon: %w", err)
	}
	add("trace.overhead_frac", (t.p50Tr-t.p50Untr)/t.p50Untr, "ratio", fmt.Sprintf("traced p50 %.3f ms vs untraced %.3f ms at %g req/s", t.p50Tr, t.p50Untr, s.nominal))
	if all.failed > 0 || all.mismatches > 0 {
		t.gate = append(t.gate, fmt.Sprintf("daemon load: %d failed, %d payload mismatches (first: %s)", all.failed, all.mismatches, all.firstBad))
	}

	// Once the load stops: how long until /v1/admission answers with a
	// round sequence that has stopped advancing.
	stopAt := nanos()
	var idle float64 = -1
	prevSeq := int64(-1)
	var prevEnd int64
	var adm server.AdmissionResponse
	for nanos()-stopAt < int64(30e9) {
		if err := getJSON(op, "/v1/admission", &adm); err != nil {
			return out, err
		}
		seq := int64(0)
		if len(adm.Rounds) > 0 {
			seq = adm.Rounds[0].Seq
		}
		if seq == prevSeq {
			idle = float64(prevEnd-stopAt) / 1e9
			break
		}
		prevSeq, prevEnd = seq, nanos()
		sleepUntil(nanos() + int64(100e6))
	}
	if idle < 0 {
		idle = float64(nanos()-stopAt) / 1e9
		t.gate = append(t.gate, "admission rounds still advancing 30s after the load stopped")
	}
	add("admission.idle_after_s", idle, "s", "load stop → /v1/admission answers with a settled round sequence")
	perWindow := 0.0
	if adm.Enabled && adm.Window > 0 {
		windows := float64(all.acked) / float64(adm.Window)
		perWindow = float64(prevSeq) / windows
	}
	add("admission.rounds_per_window", perWindow, "ratio", "daemon Round.Seq / windows filled (0 without -adaptive)")
	if s.whatif {
		var rep whatif.Report
		if err := getJSON(op, "/v1/whatif", &rep); err != nil {
			return out, err
		}
		shed := 0.0
		if rep.RefsSampled > 0 {
			shed = float64(rep.RefsShed) / float64(rep.RefsSampled)
		}
		add("whatif.shed_frac", shed, "ratio", "daemon /v1/whatif refs_shed / refs_sampled")
	}
	out.attempted += all.acked + all.failed + 1
	out.failed += all.failed
	if err := d.stop(); err != nil {
		out.failed++
		t.gate = append(t.gate, err.Error())
	}
	return out, nil
}
