package main

import (
	"errors"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeDaemon serves h on a loopback port for the test's lifetime.
func fakeDaemon(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed at cleanup
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

func testRequests(n int, token string) []encoded {
	reqs := make([]encoded, n)
	for i := range reqs {
		reqs[i] = encoded{wire: httpPost("/v1/reference", []byte(`{"query_id":"q","size":1,"cost":1}`)), token: token, payload: true}
	}
	return reqs
}

func newTestLoop(t *testing.T, addr string, conns int, reqs []encoded) *openLoop {
	t.Helper()
	l := &openLoop{reqs: reqs}
	for i := 0; i < conns; i++ {
		c, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		l.conns = append(l.conns, c)
	}
	return l
}

// TestOpenLoopTimesFromDueTime stalls the first request for 30 ms on a
// single connection. Requests due during the stall cannot be sent until it
// ends; an open loop charges that wait to them, because each latency runs
// from when the request was due, and blames it on the busy connection,
// not on the generator.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 30 * time.Millisecond
	var calls atomic.Int64
	addr := fakeDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{\"hit\":false}\n"))
	})
	const n = 20
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(i) * int64(time.Millisecond) // one request per ms
	}
	l := newTestLoop(t, addr, 1, testRequests(n, "tok"))
	res, err := l.run(phase{name: "stall", rate: 1000, due: due, dur: n * int64(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.tally.acked != n || res.tally.failed != 0 {
		t.Fatalf("acked %d failed %d, want %d and 0", res.tally.acked, res.tally.failed, n)
	}
	if res.lat[0] < int64(stall) {
		t.Errorf("stalled request latency %v, want at least %v", time.Duration(res.lat[0]), stall)
	}
	// Request 10 was due 10 ms in, so it waited about 20 ms for the
	// connection and its latency includes that wait.
	k := 10
	minWait := int64(stall) - due[k] - int64(2*time.Millisecond)
	if res.wait[k] < minWait {
		t.Errorf("request %d waited %v, want at least %v", k, time.Duration(res.wait[k]), time.Duration(minWait))
	}
	if res.lat[k] < res.wait[k] {
		t.Errorf("request %d latency %v is less than its wait %v: latency must run from the due time",
			k, time.Duration(res.lat[k]), time.Duration(res.wait[k]))
	}
	if res.genLate[k] > int64(5*time.Millisecond) {
		t.Errorf("request %d blamed %v on the generator; the wait was the connection's", k, time.Duration(res.genLate[k]))
	}
}

// TestOpenLoopSendsOnSchedule checks that an idle generator sends close
// to each due time and that its lateness is what it reports.
func TestOpenLoopSendsOnSchedule(t *testing.T) {
	addr := fakeDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{\"hit\":false}\n"))
	})
	const n = 30
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(i) * int64(2*time.Millisecond)
	}
	l := newTestLoop(t, addr, 2, testRequests(n, "tok"))
	res, err := l.run(phase{name: "idle", rate: 500, due: due, dur: n * int64(2*time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	for k := range due {
		if res.wait[k] < 0 {
			t.Fatalf("request %d sent %v before it was due", k, time.Duration(-res.wait[k]))
		}
		if res.genLate[k] > res.wait[k] {
			t.Fatalf("request %d: generator lateness %d exceeds its wait %d", k, res.genLate[k], res.wait[k])
		}
	}
	if l.next != n || l.started.Load() != n {
		t.Fatalf("loop advanced to %d with %d started, want %d", l.next, l.started.Load(), n)
	}
}

// TestGateTripsOnWrongPayload has the fake daemon answer a hit carrying
// another query's payload: the generator counts the mismatch and the gate
// fails the run.
func TestGateTripsOnWrongPayload(t *testing.T) {
	addr := fakeDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{\"hit\":true,\"payload\":\"not-the-token\"}\n"))
	})
	const n = 5
	l := newTestLoop(t, addr, 1, testRequests(n, "tok"))
	res, err := l.run(phase{name: "bad", rate: 1000, due: make([]int64, n), dur: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.tally.mismatches != n || res.tally.hits != n {
		t.Fatalf("mismatches %d hits %d, want %d each", res.tally.mismatches, res.tally.hits, n)
	}
	in := passingGate()
	in.refs = res.tally
	in.boot.References, in.boot.Hits = 0, 0
	in.end.References, in.end.Hits, in.end.DerivedHits = n, n, 0
	bad := checkGate(in)
	if len(bad) != 1 || !strings.Contains(bad[0], "payloads differ") || !strings.Contains(bad[0], "not-the-token") {
		t.Fatalf("gate = %q, want one payload failure naming the wrong payload", bad)
	}
}

// passingGate is a gate input every check accepts.
func passingGate() gateInput {
	in := gateInput{
		refs:      refTally{acked: 100, hits: 40},
		serialCSR: 0.5,
		csrBound:  0.01,
		scrapes:   opTally{attempted: 10},
		exits:     []error{nil, nil},
	}
	in.boot.References, in.boot.Hits = 1000, 300
	in.end.References, in.end.Hits, in.end.DerivedHits = 1100, 330, 10
	in.end.CostSavingsRatio = 0.505
	return in
}

func TestGatePassesConsistentRun(t *testing.T) {
	if bad := checkGate(passingGate()); len(bad) != 0 {
		t.Fatalf("gate failed a consistent run: %q", bad)
	}
}

// TestGateTripsOnCountMismatch covers each disagreement between what the
// daemon counted and what the client saw.
func TestGateTripsOnCountMismatch(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*gateInput)
		want   string
	}{
		{"lost reference", func(in *gateInput) { in.end.References-- }, "daemon counted 99 references"},
		{"extra hit", func(in *gateInput) { in.end.Hits++ }, "daemon counted 41 hits"},
		{"unseen derived hit", func(in *gateInput) { in.refs.hits-- }, "the client observed 39"},
		{"csr off the replay", func(in *gateInput) { in.end.CostSavingsRatio = 0.6 }, "from the serial replay"},
		{"unparsable scrape", func(in *gateInput) { in.scrapes.fail("scrape /stats: bad JSON") }, "scrapes failed"},
		{"unclean exit", func(in *gateInput) { in.exits[1] = errTest }, "daemon 2"},
	}
	for _, c := range cases {
		in := passingGate()
		c.mutate(&in)
		bad := checkGate(in)
		if len(bad) != 1 || !strings.Contains(bad[0], c.want) {
			t.Errorf("%s: gate = %q, want one failure containing %q", c.name, bad, c.want)
		}
	}
}

var errTest = errors.New("exit status 1")

func TestParseReference(t *testing.T) {
	cases := []struct {
		body       string
		hit, has   bool
		payload    string
		shouldFail bool
	}{
		{body: "{\"hit\":false}\n"},
		{body: "{\"hit\":true}\n", hit: true},
		{body: "{\"hit\":true,\"payload\":\"pabc\"}\n", hit: true, has: true, payload: "pabc"},
		{body: "{\"payload\":\"x\",\"hit\":true}\n", hit: true, has: true, payload: "x"},
		{body: "{\"hit\":true,\"payload\":{\"rows\":1}}\n", hit: true, has: true, payload: `{"rows":1}`},
		{body: "not json", shouldFail: true},
	}
	for _, c := range cases {
		out, err := parseReference([]byte(c.body))
		if (err != nil) != c.shouldFail {
			t.Errorf("%q: err %v", c.body, err)
			continue
		}
		if c.shouldFail {
			continue
		}
		if out.hit != c.hit || out.hasPayload != c.has || string(out.payload) != c.payload {
			t.Errorf("%q: got hit %v payload %v %q", c.body, out.hit, out.hasPayload, out.payload)
		}
	}
}

func TestCheckScrape(t *testing.T) {
	good := "# HELP a b\n# TYPE a counter\na_total 3\nb{x=\"y z\"} 1.5e+06\n"
	if err := checkPrometheus([]byte(good)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
	for _, bad := range []string{"", "# only comments\n", "a_total three\n", "novalue\n"} {
		if err := checkPrometheus([]byte(bad)); err == nil {
			t.Errorf("invalid exposition %q accepted", bad)
		}
	}
	if err := checkScrape("/stats", []byte(`{"references":1}`)); err != nil {
		t.Errorf("valid stats rejected: %v", err)
	}
	if err := checkScrape("/v1/admission", []byte(`{"enabled":`)); err == nil {
		t.Error("truncated admission body accepted")
	}
}
