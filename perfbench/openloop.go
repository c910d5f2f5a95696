package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// failedLatency stands in for the latency of a failed or refused request:
// it misses every limit, so failures can only worsen the percentiles.
const failedLatency = math.MaxInt64 / 4

// requestTimeout bounds one reference round trip.
const requestTimeout = 10 * time.Second

// refTally is what the correctness gate checks about reference responses.
type refTally struct {
	acked      int64 // 200 responses
	hits       int64 // 200 responses reporting a hit
	failed     int64 // transport errors and non-200 responses
	mismatches int64 // payloads that differ from the query's token
	firstBad   string
}

func (t *refTally) add(o refTally) {
	t.acked += o.acked
	t.hits += o.hits
	t.failed += o.failed
	t.mismatches += o.mismatches
	if t.firstBad == "" {
		t.firstBad = o.firstBad
	}
}

// phaseResult holds one phase's per-request timings, indexed in due
// order: lat runs from the due time to the end of the response, wait from
// the due time to the send, and genLate is the part of wait that the
// generator, not a busy connection, caused.
type phaseResult struct {
	phase
	lat, wait, genLate []int64
	tally              refTally
	spans              []span
}

// openLoop sends the pre-encoded requests on a fixed schedule over a
// fixed set of connections. A request is due at its arrival time whether
// or not an earlier one has finished; when every connection is busy it
// waits, and that wait counts in its latency.
type openLoop struct {
	conns []*conn
	reqs  []encoded
	// next is the trace index of the next request to send.
	next int
	// started counts requests sent so far, across phases; operator
	// actions read it to place themselves in the reference stream.
	started atomic.Int64
	// traced records a client span per request.
	traced bool
	spanID *atomic.Int64
}

// run drives one phase to completion and returns its timings.
func (l *openLoop) run(ph phase) (phaseResult, error) {
	n := len(ph.due)
	if l.next+n > len(l.reqs) {
		return phaseResult{}, fmt.Errorf("phase %s needs %d requests, %d left", ph.name, n, len(l.reqs)-l.next)
	}
	res := phaseResult{
		phase:   ph,
		lat:     make([]int64, n),
		wait:    make([]int64, n),
		genLate: make([]int64, n),
	}
	if l.traced {
		res.spans = make([]span, n)
	}
	base := l.next
	var cursor atomic.Int64
	tallies := make([]refTally, len(l.conns))
	t0 := nanos() + int64(time.Millisecond)
	var wg sync.WaitGroup
	for w, c := range l.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer lockPreciseTimer()()
			tally := &tallies[w]
			free := nanos()
			for {
				k := int(cursor.Add(1) - 1)
				if k >= n {
					return
				}
				due := t0 + ph.due[k]
				preciseSleepUntil(due)
				start := nanos()
				l.started.Add(1)
				req := &l.reqs[base+k]
				status, body, err := c.do(req.wire, requestTimeout)
				end := nanos()
				res.wait[k] = start - due
				res.genLate[k] = start - max(due, free)
				free = end
				res.lat[k] = end - due
				if l.traced {
					res.spans[k] = span{ID: l.spanID.Add(1), Req: int64(base + k), Name: "client", Start: start, End: end}
				}
				if err == nil && status != 200 {
					err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
				}
				var out refOutcome
				if err == nil {
					out, err = parseReference(body)
				}
				if err != nil {
					tally.failed++
					res.lat[k] = failedLatency
					if tally.firstBad == "" {
						tally.firstBad = fmt.Sprintf("request %d: %v", base+k, err)
					}
					continue
				}
				tally.acked++
				if out.hit {
					tally.hits++
				}
				if out.hasPayload && string(out.payload) != req.token {
					tally.mismatches++
					if tally.firstBad == "" {
						tally.firstBad = fmt.Sprintf("request %d: payload %q, want token %q", base+k, out.payload, req.token)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, t := range tallies {
		res.tally.add(t)
	}
	l.next += n
	return res, nil
}

// summary condenses a phase into the reported latency figures.
type summary struct {
	n          int
	p50, tailV int64
	tailQ      float64
	tailOK     bool
	// windows is how many consecutive windows p50 and tailV are the
	// median of.
	windows    int
	genLateP50 int64
	genLateP99 int64
	backlog    bool
	// cpuPerKref is the daemon's CPU per 1000 references over the phase.
	cpuPerKref float64
}

// windowSamples is the smallest window a windowed tail is read from: a
// p99 with ten samples beyond it needs a thousand.
const windowSamples = 1000

// summarize computes a phase's median and tail (the highest percentile
// not above want with ten samples beyond it) and whether its backlog
// grew. A long phase is cut into consecutive windows of at least
// windowSamples requests and reports the median of the windows' figures,
// so one burst of host noise moves one window, not the result.
func summarize(r phaseResult, want float64, slack int64) summary {
	s := summary{n: len(r.lat), backlog: backlogGrowing(r.wait, slack)}
	s.p50, s.tailV, s.tailQ, s.tailOK, s.windows = windowed(r.lat, want)
	gl := sortedCopy(r.genLate)
	s.genLateP50 = quantile(gl, 0.5)
	s.genLateP99, _, _ = tail(gl, 0.99)
	return s
}

// windowed splits samples (in due order) into up to maxWindows windows of
// at least windowSamples each and returns the medians of the windows'
// p50s and tails. A phase too short for two windows is one window.
func windowed(lat []int64, want float64) (p50, tailV int64, tailQ float64, ok bool, windows int) {
	const maxWindows = 9
	windows = max(1, min(maxWindows, len(lat)/windowSamples))
	var p50s, tails []int64
	ok = true
	for w := 0; w < windows; w++ {
		chunk := sortedCopy(lat[w*len(lat)/windows : (w+1)*len(lat)/windows])
		v, q, tok := tail(chunk, want)
		ok = ok && tok
		p50s, tails = append(p50s, quantile(chunk, 0.5)), append(tails, v)
		tailQ = q
	}
	return median(p50s), median(tails), tailQ, ok, windows
}

// meetsLimit is the ladder's pass rule for one rung: a tail within the
// limit and no growing backlog. A rung too short to have a tail fails.
func meetsLimit(s summary, limit int64) bool {
	return s.tailOK && s.tailV <= limit && !s.backlog
}

// sloRate is the highest rung rate that meets the limit, refined toward
// the first failing rung by where its tail crosses the limit on a log
// scale, so a system just short of the next rung reads close to it
// rather than a whole rung below. Zero when even the first rung fails.
func sloRate(rates []float64, tails []int64, pass []bool, limit int64) float64 {
	best := -1
	for i := range pass {
		if !pass[i] {
			break
		}
		best = i
	}
	if best < 0 {
		return 0
	}
	if best+1 >= len(rates) || best+1 >= len(tails) {
		return rates[best]
	}
	lo, hi := float64(tails[best]), float64(tails[best+1])
	if hi <= float64(limit) || lo <= 0 {
		// The next rung failed on backlog, not on its tail.
		return rates[best]
	}
	f := (math.Log(float64(limit)) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
	f = max(0, min(1, f))
	return rates[best] * math.Pow(rates[best+1]/rates[best], f)
}
