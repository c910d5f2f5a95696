package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// workloadSpec fixes everything about one workload except its seed: the
// trace, the daemon's flags, the cache size relative to the trace's
// working set, the open-loop rates and the latency limit.
type workloadSpec struct {
	name string
	// bench names the internal/workload generator.
	bench string
	// cacheFrac sizes the cache as a multiple of the working set of the
	// first sizeRefs references (0 = the whole trace). A fixed sizing
	// trace keeps the cache, and so the per-request cost of the layers
	// that scan it, independent of the run's rates and length.
	cacheFrac float64
	sizeRefs  int
	// Daemon features; each maps to a `watchman serve` flag.
	adaptive, whatif, derive, snapshots bool
	// nominal is the open-loop rate (requests/s) p50_ms and p99_ms are
	// measured at; ladder lists the rates slo_rate_rps climbs through.
	nominal float64
	ladder  []float64
	// probeLadder, when set, is the ladder --backlog-probe climbs instead:
	// past the cap of ladder, into a known defect the gate then reports.
	probeLadder []float64
	// p99Limit is the latency limit a ladder rung must meet, in ns.
	p99Limit int64
	// invalEvery is the invalidation cadence in ns (0 = none); invalRels
	// is the rotation of base relations invalidated.
	invalEvery int64
	invalRels  []string
	// snapshotEvery is the POST /v1/snapshot cadence in ns (0 = none).
	snapshotEvery int64
	// warmRefs is the number of references replayed in-process into the
	// snapshot the daemon boots from (snapshots only).
	warmRefs int
	// runPayloads makes run requests carry their payload token. A request
	// that carries its result has nothing left to derive, so the derive
	// workload asks without one; its warm-up references, which admit the
	// sets the daemon restores, still carry tokens.
	runPayloads bool
	// csrBound is how far the daemon's cost-savings ratio may sit from the
	// serial partitioned replay of the same references: the daemon runs
	// tuning rounds asynchronously and concurrent requests may reorder, so
	// only the exact workloads get a tight bound.
	csrBound float64
}

const ms = int64(1e6)

// paperTraceLen is the trace length of the paper's experiments (§4.1).
const paperTraceLen = 17000

// specs are the benchmark's workloads, in BENCHMARK.json order.
var specs = []workloadSpec{
	{
		name:        "tpcd-hits",
		bench:       "tpcd",
		cacheFrac:   2,
		nominal:     500,
		ladder:      []float64{500, 1000, 2000, 3500, 5500, 8000, 12000, 16000},
		p99Limit:    50 * ms,
		runPayloads: true,
		csrBound:    0.001,
	},
	{
		name:      "setquery-adaptive",
		bench:     "setquery",
		cacheFrac: 1.0 / 20,
		sizeRefs:  paperTraceLen,
		adaptive:  true,
		whatif:    true,
		// The ladder stops at 1300 req/s: above ~1800 the tuner's rounds
		// back up until GET /v1/admission blocks past a scrape's 10 s
		// timeout, which fails the run (see README.md, "First runs").
		// --backlog-probe climbs on to reproduce that defect.
		nominal:     300,
		ladder:      []float64{300, 450, 650, 900, 1300},
		probeLadder: []float64{300, 450, 650, 900, 1300, 1800, 2500, 3500},
		p99Limit:    100 * ms,
		runPayloads: true,
		csrBound:    0.05,
	},
	{
		name:          "drilldown-refresh",
		bench:         "drilldown",
		cacheFrac:     1.0 / 4,
		sizeRefs:      paperTraceLen,
		derive:        true,
		snapshots:     true,
		nominal:       100,
		ladder:        []float64{100, 200, 400, 700, 1200, 2000, 3200},
		p99Limit:      100 * ms,
		invalEvery:    200 * ms,
		invalRels:     tpcdRelations(),
		snapshotEvery: 2000 * ms,
		warmRefs:      5000,
		csrBound:      0.02,
	},
}

// tpcdRelations is the invalidation rotation of drilldown-refresh, 32
// long: every drilldown query reads lineitem, so refreshing it empties the
// cache, and it comes once per rotation; the other base relations refresh
// more often and sweep without dropping anything.
func tpcdRelations() []string {
	rot := []string{"orders", "customer", "part", "supplier", "partsupp", "nation", "region"}
	var out []string
	for len(out) < 31 {
		out = append(out, rot[len(out)%len(rot)])
	}
	return append(out, "lineitem")
}

// window is the daemon's tuning window in references: admission.DefaultWindow
// with -adaptive, 1 (no tuning rounds) without.
func (s workloadSpec) window() int {
	if s.adaptive {
		return admission.DefaultWindow
	}
	return 1
}

// findSpec looks a workload up by name.
func findSpec(name string) (workloadSpec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// serveFlags are the daemon's flags beyond the address.
func (s workloadSpec) serveFlags(capacity int64, snapPath string) []string {
	f := []string{"-cache-bytes", strconv.FormatInt(capacity, 10)}
	if s.adaptive {
		f = append(f, "-adaptive")
	}
	if s.whatif {
		f = append(f, "-whatif")
	}
	if s.derive {
		f = append(f, "-derive")
	}
	if s.snapshots {
		f = append(f, "-snapshot-path", snapPath)
	}
	return f
}

// generateTrace draws n references of the spec's benchmark from seed.
func generateTrace(s workloadSpec, seed int64, n int) (*trace.Trace, error) {
	cfg := workload.Config{Queries: n, Seed: seed}
	var tr *trace.Trace
	var err error
	switch s.bench {
	case "tpcd":
		_, tr, err = workload.StandardTPCD(0, cfg)
	case "setquery":
		_, tr, err = workload.StandardSetQuery(0, cfg)
	case "drilldown":
		_, tr, err = workload.StandardDrilldown(0, cfg)
	default:
		err = fmt.Errorf("unknown benchmark %q", s.bench)
	}
	if err != nil {
		return nil, err
	}
	return tr, tr.Validate()
}

// payloadToken is the short payload a request carries for its query: any
// payload the daemon returns for that query must equal it. It hashes the
// compressed ID, so resubmissions that differ only in spacing share it.
func payloadToken(queryID string) string {
	h := fnv.New64a()
	h.Write([]byte(core.CompressID(queryID)))
	return "p" + strconv.FormatUint(h.Sum64()&0xffffffffff, 36)
}

// encoded is one reference request: its token, whether it carries it as
// the payload, and (once encoded) the full HTTP/1.1 bytes the generator
// writes.
type encoded struct {
	wire    []byte
	token   string
	payload bool
}

// prepareRequests assigns every record its token; records from
// firstRun on carry it only when the workload's run requests do.
func prepareRequests(s workloadSpec, tr *trace.Trace, firstRun int) []encoded {
	out := make([]encoded, tr.Len())
	for i := range tr.Records {
		out[i] = encoded{token: payloadToken(tr.Records[i].QueryID), payload: i < firstRun || s.runPayloads}
	}
	return out
}

// encodeRequests renders records [from, len) as complete POST
// /v1/reference requests. The trace's logical time travels with each, so
// the daemon's λ estimates follow the trace rather than the generator's
// wall clock.
func encodeRequests(tr *trace.Trace, reqs []encoded, from int) error {
	for i := from; i < len(reqs); i++ {
		rec := &tr.Records[i]
		body, err := json.Marshal(referenceBody(rec, reqs[i]))
		if err != nil {
			return fmt.Errorf("encode record %d: %w", i, err)
		}
		reqs[i].wire = httpPost("/v1/reference", body)
	}
	return nil
}

// referenceBody is a record's /v1/reference request body.
func referenceBody(rec *trace.Record, e encoded) server.ReferenceRequest {
	body := server.ReferenceRequest{
		QueryID:   rec.QueryID,
		Time:      rec.Time,
		Class:     rec.Class,
		Size:      rec.Size,
		Cost:      rec.Cost,
		Relations: rec.Relations,
		Plan:      rec.Plan,
	}
	if e.payload {
		body.Payload = e.token
	}
	return body
}

// httpPost renders a keep-alive HTTP/1.1 POST with a JSON body.
func httpPost(path string, body []byte) []byte {
	head := "POST " + path + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n"
	return append([]byte(head), body...)
}

// httpGet renders a keep-alive HTTP/1.1 GET.
func httpGet(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// poisson draws arrival offsets (ns from the phase start) of a Poisson
// process at rate per second over dur ns.
func poisson(rng *rand.Rand, rate float64, dur int64) []int64 {
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate * 1e9
		if int64(t) >= dur {
			return out
		}
		out = append(out, int64(t))
	}
}

// phase is one stretch of the open loop at a fixed rate.
type phase struct {
	name string
	rate float64
	// due holds the arrival offsets from the phase start, ascending.
	due []int64
	dur int64
}

// plan is the run's full schedule, fixed by the seed before any request
// is sent: warm-up, the nominal phase, then the rate ladder.
type plan struct {
	warmup, nominal phase
	ladder          []phase
}

// refs is the number of references the schedule can send.
func (p plan) refs() int {
	n := len(p.warmup.due) + len(p.nominal.due)
	for _, r := range p.ladder {
		n += len(r.due)
	}
	return n
}

// poissonN draws the first n arrival offsets of a Poisson process at rate
// per second, and the phase length: one mean gap past the last arrival.
func poissonN(rng *rand.Rand, rate float64, n int) (due []int64, dur int64) {
	t := 0.0
	for range n {
		t += rng.ExpFloat64() / rate * 1e9
		due = append(due, int64(t))
	}
	return due, int64(t + 1e9/rate)
}

// nominalCount is the number of references the nominal phase sends, near
// want. With tuning windows of more than one reference, warm-up and
// nominal together end half a window past the last full one: every
// tuning round they trigger starts at least half a window before the
// phase ends, and the next is half a window away.
func nominalCount(warm, want, window int) int {
	if window <= 1 {
		return want
	}
	k := max(1, (warm+want)/window)
	return k*window + window/2 - warm
}

// makePlan splits the run's measuring time: a tenth warms up, about 60%
// runs at the nominal rate, and the rest is shared by the ladder rungs.
// The nominal phase sends a fixed number of references (nominalCount), so
// the daemon's CPU and peak memory over warm-up and nominal cover the same
// tuning rounds whatever the timing.
func makePlan(s workloadSpec, seed int64, seconds float64) plan {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	total := int64(seconds * 1e9)
	mk := func(name string, rate float64, dur int64) phase {
		return phase{name: name, rate: rate, due: poisson(rng, rate, dur), dur: dur}
	}
	p := plan{warmup: mk("warmup", s.nominal, total/10)}
	warm := len(p.warmup.due)
	n := nominalCount(warm, int(s.nominal*float64(total*60/100)/1e9), s.window())
	due, dur := poissonN(rng, s.nominal, n)
	p.nominal = phase{name: "nominal", rate: s.nominal, due: due, dur: dur}
	rung := max(total/20, total-total/10-dur) / int64(len(s.ladder))
	for _, r := range s.ladder {
		p.ladder = append(p.ladder, mk(fmt.Sprintf("rung-%g", r), r, rung))
	}
	return p
}

// capacityFor sizes the cache from the working set of the sizing prefix.
func capacityFor(s workloadSpec, tr *trace.Trace) int64 {
	sized := tr
	if s.sizeRefs > 0 && s.sizeRefs < tr.Len() {
		sized = &trace.Trace{Records: tr.Records[:s.sizeRefs]}
	}
	ws := trace.ComputeStats(sized).UniqueBytes
	return int64(math.Ceil(float64(ws) * s.cacheFrac))
}
