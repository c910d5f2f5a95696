package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]core.PolicyKind{
		"lru": core.LRU, "LRU": core.LRU,
		"lru-k": core.LRUK, "lruk": core.LRUK,
		"lfu": core.LFU, "lcs": core.LCS,
		"lnc-r": core.LNCR, "lncr": core.LNCR,
		"lnc-ra": core.LNCRA, "LNC-RA": core.LNCRA,
	}
	for in, want := range cases {
		got, err := parsePolicy(in)
		if err != nil || got != want {
			t.Errorf("parsePolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parsePolicy("unknown"); err == nil {
		t.Error("unknown policy must error")
	}
}

func TestGenerateTraceBenchmarks(t *testing.T) {
	for _, b := range []string{"tpcd", "setquery", "multiclass"} {
		tr, err := generateTrace(b, 200, 1, 0.005)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if tr.Len() != 200 {
			t.Fatalf("%s: %d records", b, tr.Len())
		}
	}
	if _, err := generateTrace("nope", 10, 1, 0); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestTraceFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"bin", "csv"} {
		path := filepath.Join(dir, "t."+format)
		if err := cmdTrace([]string{"-benchmark", "tpcd", "-queries", "150", "-seed", "2", "-scale", "0.005", "-o", path, "-format", format}); err != nil {
			t.Fatalf("cmdTrace(%s): %v", format, err)
		}
		tr, err := loadTrace(path)
		if err != nil {
			t.Fatalf("loadTrace(%s): %v", format, err)
		}
		if tr.Len() != 150 {
			t.Fatalf("%s: %d records", format, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLoadTraceRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not a trace at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrace(path); err == nil {
		t.Fatal("garbage file must fail to load")
	}
}

func TestCmdTraceRequiresOutput(t *testing.T) {
	if err := cmdTrace([]string{"-benchmark", "tpcd"}); err == nil {
		t.Fatal("missing -o must error")
	}
}

// TestFlagRules hits every flag-dependency row of every command: each
// case sets a flag whose enabling condition is absent and must be
// rejected with an error naming the command, the flag and the reason.
// The rejection happens before any trace is read or cache is built.
func TestFlagRules(t *testing.T) {
	cases := []struct {
		cmd  func([]string) error
		args []string
		want string
	}{
		{cmdRun, []string{"-i", "t.trace", "-benchmark", "tpcd"}, "run: -benchmark (in-process workload flags"},
		{cmdRun, []string{"-i", "t.trace", "-queries", "9", "-seed", "2", "-scale", "1"}, "run: -queries, -scale, -seed (in-process workload flags"},
		{cmdCompare, []string{"-i", "t.trace", "-benchmark", "setquery", "-queries", "99"}, "compare: -benchmark, -queries (in-process workload flags"},
		{cmdCompare, []string{"-restart", "-policies", "lru", "-window", "9"}, "compare: -policies, -window has no effect with -restart"},
		{cmdCompare, []string{"-restart", "-explain"}, "-explain has no effect with -restart"},
		{cmdCompare, []string{"-restart", "-whatif"}, "-whatif has no effect with -restart"},
		{cmdCompare, []string{"-whatif-sample", "4"}, "compare: -whatif-sample (needs -whatif)"},
		{cmdCompare, []string{"-whatif", "-policies", "lru", "-explain"}, "compare: -explain, -policies has no effect with -whatif"},
		{cmdCompare, []string{"-policies", "lru,lnc-ra", "-window", "500"}, "compare: -window (needs lnc-ra-adaptive in -policies, or -whatif)"},
		{cmdServe, []string{"-tune-window", "500"}, "serve: -tune-window (needs -adaptive)"},
		{cmdServe, []string{"-snapshot-interval", "5s"}, "serve: -snapshot-interval (needs -snapshot-path)"},
		{cmdServe, []string{"-flight-sample", "2", "-flight-slow", "1s"}, "serve: -flight-sample, -flight-slow (needs -debug)"},
		{cmdServe, []string{"-whatif-sample", "2"}, "serve: -whatif-sample (needs -whatif)"},
		{cmdServe, []string{"-promote-buffer", "8"}, "serve: -promote-buffer (needs -buffered)"},
		{cmdLoadgen, []string{"-i", "t.trace", "-gets-per-promote", "2"}, "loadgen: -gets-per-promote (needs -buffered)"},
		{cmdLoadgen, []string{"-i", "t.trace", "-addr", "http://localhost:1", "-shards", "4", "-evictor", "heap"},
			"loadgen: -evictor, -shards configure the in-process cache and have no effect with -addr"},
	}
	for _, c := range cases {
		err := c.cmd(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want it to contain %q", c.args, err, c.want)
		}
	}
}
