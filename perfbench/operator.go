package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/whatif"
)

// scrapeEvery is the scrape poller's period: each enabled endpoint is
// read every len(endpoints) × scrapeEvery.
const scrapeEvery = 50 * time.Millisecond

// opTimeout bounds one operator request (scrape, invalidation, snapshot).
const opTimeout = 10 * time.Second

// opTally counts operator requests for the run's attempted/failed totals.
type opTally struct {
	attempted, failed int64
	firstBad          string
}

func (t *opTally) fail(format string, args ...any) {
	t.failed++
	if t.firstBad == "" {
		t.firstBad = fmt.Sprintf(format, args...)
	}
}

// invalEvent places one invalidation in the reference stream: pos is the
// number of references sent when it was sent.
type invalEvent struct {
	pos  int64
	rels []string
}

// snapResult is one POST /v1/snapshot response.
type snapResult = server.SnapshotResponse

// operatorResult is what the operator side of a run observed.
type operatorResult struct {
	scrapes    opTally
	scrapeLat  []int64
	byEndpoint map[string][]int64
	writes     opTally
	invalLat   []int64
	invals     []invalEvent
	snapshots  []snapResult
}

// scrapeEndpoints are the read-only endpoints an operator polls; the
// what-if report exists only on a -whatif daemon.
func scrapeEndpoints(s workloadSpec) []string {
	eps := []string{"/metrics", "/stats", "/v1/admission"}
	if s.whatif {
		eps = append(eps, "/v1/whatif")
	}
	return eps
}

// runOperators polls the scrape endpoints and, for workloads with a write
// side, fires invalidations and snapshots on their fixed cadences, each on
// a connection of its own, until stop closes.
func runOperators(addr string, s workloadSpec, loop *openLoop, stop <-chan struct{}) (*operatorResult, error) {
	res := &operatorResult{byEndpoint: map[string][]int64{}}
	scrapeConn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer scrapeConn.Close()
	var writeConn *conn
	if s.invalEvery > 0 || s.snapshotEvery > 0 {
		if writeConn, err = dial(addr); err != nil {
			return nil, err
		}
		defer writeConn.Close()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		scrapeLoop(scrapeConn, scrapeEndpoints(s), res, stop)
	}()
	if writeConn != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeLoop(writeConn, s, loop, res, stop)
		}()
	}
	wg.Wait()
	return res, nil
}

// stopped reports whether stop has closed.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

func scrapeLoop(c *conn, eps []string, res *operatorResult, stop <-chan struct{}) {
	reqs := make([][]byte, len(eps))
	for i, ep := range eps {
		reqs[i] = httpGet(ep)
	}
	next := nanos()
	for i := 0; !stopped(stop); i++ {
		sleepUntil(next)
		next += int64(scrapeEvery)
		ep := eps[i%len(eps)]
		res.scrapes.attempted++
		t0 := nanos()
		status, body, err := c.do(reqs[i%len(eps)], opTimeout)
		d := nanos() - t0
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil {
			err = checkScrape(ep, body)
		}
		if err != nil {
			res.scrapes.fail("scrape %s: %v", ep, err)
			d = failedLatency
		}
		res.scrapeLat = append(res.scrapeLat, d)
		res.byEndpoint[ep] = append(res.byEndpoint[ep], d)
		// A scrape that overran its slot does not queue the ones it
		// displaced: the poller is an operator, not a load source.
		next = max(next, nanos())
	}
}

// checkScrape verifies that a scrape body parses as its endpoint's format.
func checkScrape(ep string, body []byte) error {
	switch ep {
	case "/metrics":
		return checkPrometheus(body)
	case "/stats":
		return json.Unmarshal(body, new(server.StatsResponse))
	case "/v1/admission":
		return json.Unmarshal(body, new(server.AdmissionResponse))
	case "/v1/whatif":
		return json.Unmarshal(body, new(whatif.Report))
	}
	return fmt.Errorf("no parser for %s", ep)
}

// checkPrometheus validates the text exposition format: every line is
// blank, a comment, or a sample whose last field is a number.
func checkPrometheus(body []byte) error {
	if len(body) == 0 {
		return errors.New("empty exposition")
	}
	samples := 0
	for i, line := range bytes.Split(body, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		j := bytes.LastIndexByte(line, ' ')
		if j <= 0 {
			return fmt.Errorf("line %d: no value: %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(string(line[j+1:]), 64); err != nil {
			return fmt.Errorf("line %d: bad value: %q", i+1, line)
		}
		samples++
	}
	if samples == 0 {
		return errors.New("exposition has no samples")
	}
	return nil
}

// writeLoop fires invalidations and snapshots on their cadences.
func writeLoop(c *conn, s workloadSpec, loop *openLoop, res *operatorResult, stop <-chan struct{}) {
	const never = int64(1) << 62
	start := nanos()
	nextInval, nextSnap := never, never
	if s.invalEvery > 0 {
		nextInval = start + s.invalEvery
	}
	if s.snapshotEvery > 0 {
		nextSnap = start + s.snapshotEvery
	}
	snapReq := httpPost("/v1/snapshot", nil)
	for k := 0; ; {
		due := min(nextInval, nextSnap)
		for !stopped(stop) && nanos() < due {
			sleepUntil(min(due, nanos()+int64(20*time.Millisecond)))
		}
		if stopped(stop) {
			return
		}
		res.writes.attempted++
		if due == nextInval {
			nextInval += s.invalEvery
			rel := s.invalRels[k%len(s.invalRels)]
			k++
			body, _ := json.Marshal(server.InvalidateRequest{Relations: []string{rel}})
			pos := loop.started.Load()
			t0 := nanos()
			status, resp, err := c.do(httpPost("/v1/invalidate", body), opTimeout)
			d := nanos() - t0
			if err == nil && status != 200 {
				err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(resp))
			}
			if err == nil {
				err = json.Unmarshal(resp, new(server.InvalidateResponse))
			}
			if err != nil {
				res.writes.fail("invalidate %s: %v", rel, err)
				d = failedLatency
			}
			res.invalLat = append(res.invalLat, d)
			res.invals = append(res.invals, invalEvent{pos: pos, rels: []string{rel}})
			continue
		}
		nextSnap += s.snapshotEvery
		status, resp, err := c.do(snapReq, opTimeout)
		var snap snapResult
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(resp))
		}
		if err == nil {
			err = json.Unmarshal(resp, &snap)
		}
		if err != nil {
			res.writes.fail("snapshot: %v", err)
			continue
		}
		res.snapshots = append(res.snapshots, snap)
	}
}

// getJSON fetches one endpoint and decodes it into v.
func getJSON(c *conn, path string, v any) error {
	status, body, err := c.do(httpGet(path), opTimeout)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != 200 {
		return fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}
