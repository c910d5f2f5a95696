package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/whatif"
)

// setupRuns is how many times a run boots the daemon; set-up time is the
// median, and the last daemon serves the load.
const setupRuns = 15

// env locates the checkout, the daemon binary and the output directory.
type env struct {
	root, daemon, out string
}

// prepared is a workload instance: its trace, schedule, cache size and
// pre-encoded requests, all fixed by the seed before anything is timed.
type prepared struct {
	spec     workloadSpec
	seed     int64
	plan     plan
	tr       *trace.Trace
	warmN    int
	capacity int64
	reqs     []encoded
	canon    []canonical
	// pristine is the warm snapshot the daemon boots from (nil without
	// snapshots); snapPath is the file each boot restores it from.
	pristine []byte
	snapPath string
}

// prepare builds everything a run sends before the daemon starts.
func prepare(e env, s workloadSpec, seed int64, seconds float64) (*prepared, error) {
	p := &prepared{spec: s, seed: seed, plan: makePlan(s, seed, seconds)}
	if s.snapshots {
		p.warmN = s.warmRefs
	}
	tr, err := generateTrace(s, seed, max(p.warmN+p.plan.refs(), s.sizeRefs))
	if err != nil {
		return nil, err
	}
	p.tr = tr
	p.capacity = capacityFor(s, tr)
	p.reqs = prepareRequests(s, tr, p.warmN)
	if err := encodeRequests(tr, p.reqs, p.warmN); err != nil {
		return nil, err
	}
	p.canon = canonicalize(tr.Records, p.reqs)
	if s.snapshots {
		p.snapPath = filepath.Join(e.out, fmt.Sprintf("%s-%d.wmsnap", s.name, seed))
		if p.pristine, err = warmSnapshot(s, p.capacity, p.canon[:p.warmN]); err != nil {
			return nil, fmt.Errorf("warm snapshot: %w", err)
		}
	}
	return p, nil
}

// newSharded builds an in-process cache shaped like the daemon's.
func newSharded(s workloadSpec, capacity int64, cfg shard.Config) (*shard.Sharded, error) {
	cfg.Shards = shards
	cfg.Cache = baseConfig(capacity)
	if s.adaptive && cfg.Tuner == nil {
		t, err := admission.New(admission.Config{Capacity: capacity, K: 4, Evictor: core.ScanEvictor})
		if err != nil {
			return nil, err
		}
		cfg.Tuner = t
	}
	return shard.New(cfg)
}

// warmSnapshot replays the warm-up references into an in-process cache
// shaped like the daemon's and returns its WMSNAP encoding.
func warmSnapshot(s workloadSpec, capacity int64, refs []canonical) ([]byte, error) {
	cfg := shard.Config{}
	if s.derive {
		cfg.Deriver = derive.New(derive.Config{})
	}
	sc, err := newSharded(s, capacity, cfg)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	for i := range refs {
		sc.Reference(refs[i].req)
	}
	if err := sc.CheckInvariants(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := sc.StreamSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// boot starts the daemon, restoring the warm snapshot when there is one.
func (p *prepared) boot(e env, tag string) (*daemon, int64, error) {
	if p.pristine != nil {
		if err := os.WriteFile(p.snapPath, p.pristine, 0o644); err != nil {
			return nil, 0, err
		}
	}
	log := filepath.Join(e.out, fmt.Sprintf("daemon-%s-%d-%s.log", p.spec.name, p.seed, tag))
	return startDaemon(e.daemon, p.spec.serveFlags(p.capacity, p.snapPath), log)
}

// bootRepeated boots the daemon setupRuns times, stopping all but the
// last, and returns the survivor, each boot's set-up seconds and each
// stopped daemon's exit status.
func (p *prepared) bootRepeated(e env) (*daemon, []float64, []error, error) {
	var setups []float64
	var exits []error
	for i := 0; i < setupRuns; i++ {
		d, ns, err := p.boot(e, fmt.Sprint(i))
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, float64(ns)/1e9)
		if i == setupRuns-1 {
			return d, setups, exits, nil
		}
		exits = append(exits, d.stop())
	}
	panic("unreachable")
}

// settleLimit bounds the wait for the daemon's background work after the
// nominal phase; idleWindow and idleCPUMillis define an idle daemon: at
// most two clock ticks of CPU (4% of one CPU, what the scrapes cost) over
// half a second, with the tuner's round sequence unchanged.
const (
	settleLimit   = 15e9
	idleWindow    = 500e6
	idleCPUMillis = 2 * 1000 / clkTck
)

// settle waits until the background work the sent references triggered
// is done: the what-if ghosts have applied their queue, and the daemon is
// idle. It reports false when the daemon is still busy after settleLimit.
func settle(op *conn, d *daemon, s workloadSpec) (bool, error) {
	if s.whatif {
		// The report drains the ghost queue before answering.
		var rep whatif.Report
		if err := getJSON(op, "/v1/whatif", &rep); err != nil {
			return false, err
		}
	}
	state := func() (float64, int64, error) {
		cpu, err := d.cpuMillis()
		if err != nil || !s.adaptive {
			return cpu, 0, err
		}
		var adm server.AdmissionResponse
		if err := getJSON(op, "/v1/admission", &adm); err != nil || len(adm.Rounds) == 0 {
			return cpu, 0, err
		}
		return cpu, adm.Rounds[0].Seq, nil
	}
	cpu0, seq0, err := state()
	for start := nanos(); err == nil && nanos()-start < settleLimit; {
		sleepUntil(nanos() + idleWindow)
		cpu1, seq1, err1 := state()
		if err1 == nil && cpu1-cpu0 <= idleCPUMillis && seq1 == seq0 {
			return true, nil
		}
		cpu0, seq0, err = cpu1, seq1, err1
	}
	return false, err
}

// loadConns is the generator's connection count: one per CPU, since the
// generator is a single process with at most nproc threads and
// connections.
func loadConns() int { return max(1, runtime.NumCPU()) }

// e2eReport is an untraced run's outcome.
type e2eReport struct {
	p         *prepared
	daemonCmd []string
	setups    []float64
	nominal   summary
	warmup    summary
	rungs     []summary
	rungRates []float64
	slo       float64
	boot, end server.StatsResponse
	// afterNominal is /stats right after the nominal phase.
	afterNominal server.StatsResponse
	serialCSR    float64
	cpuMS        float64 // daemon CPU from boot through the settled nominal phase
	cpuRefs      int64   // references it covers (warm-up and nominal)
	genCPUMS     float64 // the benchmark process's own CPU over the nominal phase
	nomRefs      int64
	rssMB        float64
	ops          *operatorResult
	refs         refTally
	attempted    int64
	failed       int64
	gate         []string
	invalid      string
	goVersion    string
}

// runEndToEnd boots the daemon, drives it open-loop through warm-up, the
// nominal phase and the rate ladder while operators scrape (and, for the
// write-side workload, invalidate and snapshot), then stops it and runs
// the correctness gate.
func runEndToEnd(e env, p *prepared) (*e2eReport, error) {
	s := p.spec
	r := &e2eReport{p: p}
	// The benchmark runs on one P from here on: the generator's workers
	// block in system calls, so it needs no more, and fewer runnable
	// threads leave the CPUs to the daemon. Collecting the set-up's
	// garbage first keeps the benchmark's own GC out of the boots.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	stage("boot")
	d, setups, exits, err := p.bootRepeated(e)
	if err != nil {
		return nil, err
	}
	stage("load")
	defer func() {
		if d.alive() {
			d.kill()
		}
	}()
	r.daemonCmd, r.setups = d.args, setups
	op, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer op.Close()
	if err := getJSON(op, "/stats", &r.boot); err != nil {
		return nil, err
	}
	var hz server.HealthzResponse
	if err := getJSON(op, "/healthz", &hz); err != nil {
		return nil, err
	}
	r.goVersion = hz.GoVersion

	loop := &openLoop{reqs: p.reqs, next: p.warmN}
	for i := 0; i < loadConns(); i++ {
		c, err := dial(d.addr)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		loop.conns = append(loop.conns, c)
	}
	stop := make(chan struct{})
	type opOut struct {
		res *operatorResult
		err error
	}
	opDone := make(chan opOut, 1)
	go func() {
		res, err := runOperators(d.addr, s, loop, stop)
		opDone <- opOut{res, err}
	}()
	all := refTally{}
	runPhase := func(ph phase) (summary, error) {
		c0, _ := d.cpuMillis()
		res, err := loop.run(ph)
		if err != nil {
			return summary{}, err
		}
		c1, _ := d.cpuMillis()
		all.add(res.tally)
		sum := summarize(res, 0.99, s.p99Limit/2)
		sum.cpuPerKref = (c1 - c0) / (float64(len(res.lat)) / 1000)
		return sum, nil
	}
	// The daemon's CPU is read from just after boot to the end of the
	// nominal phase plus the settling of the background work those
	// references triggered, so it holds whole tuning rounds and whole
	// ghost batches rather than however many a phase boundary cut.
	cpu0, runErr := d.cpuMillis()
	if runErr == nil {
		r.warmup, runErr = runPhase(p.plan.warmup)
	}
	if runErr == nil {
		gen0, _ := procCPUMillis("self")
		r.nominal, runErr = runPhase(p.plan.nominal)
		gen1, _ := procCPUMillis("self")
		r.genCPUMS = gen1 - gen0
	}
	settled := false
	if runErr == nil {
		stage("settle")
		settled, runErr = settle(op, d, s)
	}
	if runErr == nil {
		var cpu1 float64
		cpu1, runErr = d.cpuMillis()
		r.cpuMS = cpu1 - cpu0
		r.cpuRefs = int64(r.warmup.n + r.nominal.n)
		r.nomRefs = int64(r.nominal.n)
	}
	// The ratios and the peak RSS are read once the nominal phase has
	// sent its fixed prefix of the trace, so how far the ladder climbs
	// cannot move them.
	if runErr == nil {
		runErr = getJSON(op, "/stats", &r.afterNominal)
	}
	if runErr == nil {
		r.rssMB, runErr = d.peakRSSMB()
	}
	var pass []bool
	var tails []int64
	stage("ladder")
	for _, rung := range p.plan.ladder {
		if runErr != nil {
			break
		}
		var sum summary
		if sum, runErr = runPhase(rung); runErr != nil {
			break
		}
		ok := meetsLimit(sum, s.p99Limit)
		r.rungs = append(r.rungs, sum)
		r.rungRates = append(r.rungRates, rung.rate)
		pass = append(pass, ok)
		tails = append(tails, sum.tailV)
		if !ok {
			break
		}
	}
	close(stop)
	oo := <-opDone
	if runErr != nil {
		return nil, runErr
	}
	if oo.err != nil {
		return nil, oo.err
	}
	r.ops = oo.res
	r.slo = sloRate(r.rungRates, tails, pass, s.p99Limit)
	if err := getJSON(op, "/stats", &r.end); err != nil {
		return nil, err
	}
	stage("stop")
	exits = append(exits, d.stop())
	stage("serial replay")

	// The serial replay sees the warm-up references and every reference
	// sent, with each invalidation at the stream position it was sent at.
	sent := loop.next
	invals := make([]invalEvent, len(r.ops.invals))
	for i, ev := range r.ops.invals {
		invals[i] = invalEvent{pos: int64(p.warmN) + ev.pos, rels: ev.rels}
	}
	st, err := serialReplay(s, p.capacity, p.canon[:sent], invals)
	if err != nil {
		return nil, fmt.Errorf("serial replay: %w", err)
	}
	r.serialCSR = st.CostSavingsRatio()
	r.refs = all
	r.gate = checkGate(gateInput{
		refs: all, boot: r.boot, end: r.end,
		serialCSR: r.serialCSR, csrBound: s.csrBound,
		scrapes: r.ops.scrapes, writes: r.ops.writes, exits: exits,
	})
	r.attempted = int64(sent-p.warmN) + r.ops.scrapes.attempted + r.ops.writes.attempted + int64(len(exits))
	r.failed = all.failed + r.ops.scrapes.failed + r.ops.writes.failed
	for _, err := range exits {
		if err != nil {
			r.failed++
		}
	}
	// Host noise (a descheduled VM) makes tails late for generator and
	// daemon alike; a generator that cannot keep up is late on the median
	// request.
	if !settled {
		r.invalid = fmt.Sprintf("the daemon was still busy %.0f s after the nominal phase, so cpu_ms_per_kref would cover a cut tuning round",
			settleLimit/1e9)
	}
	if lim := s.p99Limit / 10; r.nominal.genLateP50 > lim {
		r.invalid = fmt.Sprintf("median generator lateness %.3f ms at the nominal rate exceeds %.3f ms: the generator, not the daemon, fell behind",
			msOf(r.nominal.genLateP50), msOf(lim))
	}
	return r, nil
}
