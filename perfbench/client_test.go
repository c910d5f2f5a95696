package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
)

var nullServeAddr = flag.String("null-serve-addr", "", "serve the null handler here (helper process of TestClientComparison)")

// TestNullServeHelper is the null daemon of TestClientComparison, run in
// a process of its own so that its scheduling does not mix with the
// clients'.
func TestNullServeHelper(t *testing.T) {
	if *nullServeAddr == "" {
		t.Skip("helper process of TestClientComparison")
	}
	if err := serveNull(*nullServeAddr); err != nil {
		t.Fatal(err)
	}
}

// TestClientComparison drives the null daemon open-loop at the nominal
// rates with the benchmark's client (nanosleep on locked threads, raw
// socket calls) and with net/http paced by the runtime's timers, and logs
// each one's latency, generator lateness and CPU per request. It is a
// measurement, not a check; run it with
//
//	PERFBENCH_CLIENT_COMPARE=1 go test -run TestClientComparison -v
func TestClientComparison(t *testing.T) {
	if os.Getenv("PERFBENCH_CLIENT_COMPARE") == "" {
		t.Skip("set PERFBENCH_CLIENT_COMPARE=1 to compare the benchmark's client with net/http")
	}
	nd, _, err := startServer(os.Args[0], func(addr string) []string {
		return []string{"-test.run=^TestNullServeHelper$", "-null-serve-addr", addr}
	}, filepath.Join(t.TempDir(), "null.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.stop()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body := []byte(`{"query_id":"select 1","size":100,"cost":1,"payload":"p1"}`)
	const dur = int64(5e9)
	for _, rate := range []float64{100, 500, 2000} {
		due := poisson(rand.New(rand.NewSource(1)), rate, dur)
		for _, client := range []string{"perfbench", "net/http"} {
			run := runOwnClient
			if client == "net/http" {
				run = runStdClient
			}
			c0, _ := procCPUMillis("self")
			lat, late, err := run(nd.addr, due, body)
			c1, _ := procCPUMillis("self")
			if err != nil {
				t.Fatal(err)
			}
			l, g := sortedCopy(lat), sortedCopy(late)
			g99, _, _ := tail(g, 0.99)
			t.Logf("%5g req/s %-9s latency p50 %.3f ms; generator lateness p50 %.3f ms, p99 %.3f ms; client CPU %.1f µs/request",
				rate, client, msOf(quantile(l, 0.5)), msOf(quantile(g, 0.5)), msOf(g99), (c1-c0)*1e3/float64(len(due)))
		}
	}
}

// runOwnClient is the benchmark's open loop.
func runOwnClient(addr string, due []int64, body []byte) (lat, late []int64, err error) {
	reqs := make([]encoded, len(due))
	for i := range reqs {
		reqs[i].wire = httpPost("/v1/reference", body)
	}
	loop := &openLoop{reqs: reqs}
	for range loadConns() {
		c, err := dial(addr)
		if err != nil {
			return nil, nil, err
		}
		defer c.Close()
		loop.conns = append(loop.conns, c)
	}
	res, err := loop.run(phase{name: "own", due: due})
	return res.lat, res.genLate, err
}

// runStdClient is the same open loop on net/http, with keep-alive
// connections, one per worker, paced by time.Sleep.
func runStdClient(addr string, due []int64, body []byte) (lat, late []int64, err error) {
	conns := loadConns()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/v1/reference"
	lat, late = make([]int64, len(due)), make([]int64, len(due))
	var cursor atomic.Int64
	var failed atomic.Int64
	done := make(chan struct{})
	t0 := nanos() + 1e6
	for range conns {
		go func() {
			defer func() { done <- struct{}{} }()
			free := nanos()
			for {
				k := int(cursor.Add(1) - 1)
				if k >= len(due) {
					return
				}
				d := t0 + due[k]
				sleepUntil(d)
				start := nanos()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				end := nanos()
				if err != nil {
					failed.Add(1)
				}
				lat[k], late[k] = end-d, start-max(d, free)
				free = end
			}
		}()
	}
	for range conns {
		<-done
	}
	if n := failed.Load(); n > 0 {
		return nil, nil, fmt.Errorf("%d net/http requests failed", n)
	}
	return lat, late, nil
}
