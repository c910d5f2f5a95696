package main

import (
	"math"
	"testing"
)

func seq(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	return xs
}

// TestTailKeepsTenBeyond pins the reporting rule: the tail is the highest
// percentile not above the one asked for that still has at least ten
// samples beyond it.
func TestTailKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n     int
		want  float64
		v     int64
		q     float64
		ok    bool
		label string
	}{
		{n: 10000, want: 0.99, v: 9900, q: 0.99, ok: true, label: "p99 has 100 beyond"},
		{n: 1000, want: 0.99, v: 990, q: 0.99, ok: true, label: "p99 has exactly 10 beyond"},
		{n: 300, want: 0.99, v: 290, q: 290.0 / 300, ok: true, label: "300 samples fall back to p96.7"},
		{n: 200, want: 0.95, v: 190, q: 0.95, ok: true, label: "p95 of 200"},
		{n: 11, want: 0.99, v: 1, q: 1.0 / 11, ok: true, label: "11 samples leave only the minimum"},
		{n: 10, want: 0.99, ok: false, label: "10 samples support no tail"},
	}
	for _, c := range cases {
		v, q, ok := tail(seq(c.n), c.want)
		if ok != c.ok || v != c.v || math.Abs(q-c.q) > 1e-12 {
			t.Errorf("%s: tail(n=%d, %g) = (%d, %g, %v), want (%d, %g, %v)", c.label, c.n, c.want, v, q, ok, c.v, c.q, c.ok)
		}
		if ok {
			beyond := c.n - int(v)
			if beyond < minBeyond {
				t.Errorf("%s: only %d samples beyond the tail", c.label, beyond)
			}
		}
	}
}

func TestTailOrMedianNeverBelowMedian(t *testing.T) {
	v, q := tailOrMedian(seq(17), 0.99)
	if q != 0.5 || v != 9 {
		t.Fatalf("17 samples: got (%d, %g), want the median (9, 0.5)", v, q)
	}
	v, q = tailOrMedian(seq(1000), 0.99)
	if q != 0.99 || v != 990 {
		t.Fatalf("1000 samples: got (%d, %g), want (990, 0.99)", v, q)
	}
}

func TestWindowedReportsMedianOfWindows(t *testing.T) {
	// Three windows of 1000: one with a burst of host noise. The median
	// window ignores it.
	lat := make([]int64, 3000)
	for i := range lat {
		lat[i] = 100
	}
	for i := 1000; i < 2000; i++ {
		lat[i] = 5000
	}
	p50, tailV, _, ok, windows := windowed(lat, 0.99)
	if !ok || windows != 3 || p50 != 100 || tailV != 100 {
		t.Fatalf("windowed = p50 %d tail %d ok %v windows %d, want 100 100 true 3", p50, tailV, ok, windows)
	}
	// A short phase is a single window.
	_, _, _, _, windows = windowed(lat[:1500], 0.99)
	if windows != 1 {
		t.Fatalf("1500 samples: %d windows, want 1", windows)
	}
}

// TestSelfTimeSubtractsChildCoverage checks self time: the parent minus
// the union of its children, clipped to the parent, overlaps counted once.
func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 140}, {Start: 130, End: 160}}, 50},
		{"nested child", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"child clipped to parent", []span{{Start: 50, End: 120}, {Start: 190, End: 260}}, 70},
		{"child outside parent", []span{{Start: 10, End: 90}}, 100},
		{"child covers all", []span{{Start: 0, End: 300}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRungSelfIsMedianDifference(t *testing.T) {
	outer := []int64{50, 10, 30, 20, 40} // median 30
	inner := []int64{5, 25, 15, 100, 20} // median 20
	if got := rungSelf(outer, inner); got != 10 {
		t.Fatalf("rungSelf = %d, want 10", got)
	}
}

// TestBacklogGrowing separates a deep but stable queue from one that
// grows across the rung.
func TestBacklogGrowing(t *testing.T) {
	flat := make([]int64, 400)
	for i := range flat {
		flat[i] = 3_000_000 // a steady 3 ms wait
	}
	if backlogGrowing(flat, ms) {
		t.Error("a steady wait must not read as a growing backlog")
	}
	growing := make([]int64, 400)
	for i := range growing {
		growing[i] = int64(i) * 50_000 // +50 µs per request: 20 ms by the end
	}
	if !backlogGrowing(growing, ms) {
		t.Error("a wait climbing 20 ms across the rung must read as a growing backlog")
	}
	noisy := make([]int64, 400)
	for i := range noisy {
		noisy[i] = int64(i%7) * 100_000 // jitter under 1 ms, no trend
	}
	if backlogGrowing(noisy, ms) {
		t.Error("jitter within the slack must not read as a growing backlog")
	}
	if backlogGrowing(growing[:6], ms) {
		t.Error("too few samples must not read as a growing backlog")
	}
}

func TestMeetsLimit(t *testing.T) {
	ok := summary{tailOK: true, tailV: 4 * ms}
	if !meetsLimit(ok, 5*ms) {
		t.Error("tail under the limit without backlog must pass")
	}
	if meetsLimit(summary{tailOK: true, tailV: 6 * ms}, 5*ms) {
		t.Error("tail over the limit must fail")
	}
	if meetsLimit(summary{tailOK: true, tailV: ms, backlog: true}, 5*ms) {
		t.Error("a growing backlog must fail even under the limit")
	}
	if meetsLimit(summary{tailOK: false}, 5*ms) {
		t.Error("a rung without a tail must fail")
	}
}

func TestSloRate(t *testing.T) {
	rates := []float64{100, 200, 400}
	limit := 10 * ms
	if got := sloRate(rates, []int64{20 * ms}, []bool{false}, limit); got != 0 {
		t.Errorf("first rung failing: slo %g, want 0", got)
	}
	if got := sloRate(rates, []int64{ms, 2 * ms, 3 * ms}, []bool{true, true, true}, limit); got != 400 {
		t.Errorf("every rung passing: slo %g, want the top rate 400", got)
	}
	// The tail crosses the limit halfway (in log space) between rungs 1
	// and 2, so the rate is halfway in log space too.
	got := sloRate(rates, []int64{ms, 100 * ms}, []bool{true, false}, limit)
	if math.Abs(got-100*math.Sqrt2) > 1e-9 {
		t.Errorf("interpolated slo %g, want %g", got, 100*math.Sqrt2)
	}
	// A next rung that failed on backlog alone gives no interpolation.
	if got := sloRate(rates, []int64{ms, 5 * ms}, []bool{true, false}, limit); got != 100 {
		t.Errorf("backlog-only failure: slo %g, want 100", got)
	}
}

func TestNominalCountEndsHalfAWindowPastARound(t *testing.T) {
	for _, c := range []struct{ warm, want, window, n int }{
		{750, 4500, 2000, 4250}, // 5000 in all: two rounds, half a window to the next
		{100, 500, 2000, 2900},  // at least one round
		{800, 5000, 1, 5000},    // no tuning rounds: the rate decides
	} {
		n := nominalCount(c.warm, c.want, c.window)
		if n != c.n {
			t.Errorf("nominalCount(%d, %d, %d) = %d, want %d", c.warm, c.want, c.window, n, c.n)
		}
		if c.window > 1 && (c.warm+n)%c.window != c.window/2 {
			t.Errorf("warm-up + nominal = %d does not end half a window past a round", c.warm+n)
		}
	}
}

func TestMakePlanSendsTheNominalCount(t *testing.T) {
	s, err := findSpec("setquery-adaptive")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		p := makePlan(s, seed, 25)
		if got := len(p.warmup.due) + len(p.nominal.due); got%s.window() != s.window()/2 {
			t.Errorf("seed %d: warm-up + nominal = %d references", seed, got)
		}
		if p.nominal.dur <= p.nominal.due[len(p.nominal.due)-1] {
			t.Errorf("seed %d: nominal phase ends before its last arrival", seed)
		}
	}
}
