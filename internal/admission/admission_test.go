package admission

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// sampleFor builds a canonical sample from a raw query string.
func sampleFor(query string, size int64, cost, time float64) Sample {
	id := core.CompressID(query)
	return Sample{ID: id, Sig: core.Signature(id), Size: size, Cost: cost, Time: time}
}

func TestThresholdPublishLoad(t *testing.T) {
	th := NewThreshold(1)
	if got := th.Load(); got != 1 {
		t.Fatalf("initial threshold = %g, want 1", got)
	}
	th.Store(0.25)
	if got := th.Load(); got != 0.25 {
		t.Fatalf("threshold after Store = %g, want 0.25", got)
	}
}

func TestStaticAdmitterIsLNCA(t *testing.T) {
	a := NewStaticAdmitter(1)
	if !a.Admit(core.AdmissionDecision{Profit: 2, Bar: 1}) {
		t.Error("profit 2 > bar 1 must admit at θ=1")
	}
	if a.Admit(core.AdmissionDecision{Profit: 1, Bar: 1}) {
		t.Error("profit == bar must reject at θ=1 (strict inequality, as LNC-A)")
	}
	conservative := NewStaticAdmitter(4)
	if conservative.Admit(core.AdmissionDecision{Profit: 2, Bar: 1}) {
		t.Error("profit 2 ≤ 4·1 must reject at θ=4")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Error("zero capacity must error")
	}
	if _, err := New(Config{Capacity: 1 << 20, Grid: []float64{0.5, 2}}); err == nil {
		t.Error("grid without θ=1 must error")
	}
	if _, err := New(Config{Capacity: 1 << 20, Grid: []float64{1, -2}}); err == nil {
		t.Error("negative grid candidate must error")
	}
	if _, err := New(Config{Capacity: 1 << 20, Grid: []float64{1, math.Inf(1)}}); err == nil {
		t.Error("infinite grid candidate must error")
	}
	tu, err := New(Config{Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := tu.Threshold(); got != 1 {
		t.Fatalf("initial threshold = %g, want the static LNC-A setting 1", got)
	}
	if got := len(tu.Grid()); got != len(DefaultGrid()) {
		t.Fatalf("default grid has %d candidates, want %d", got, len(DefaultGrid()))
	}
}

// TestShadowMatchesBruteForce pins the core property of the evaluator: a
// candidate's persistent shadow cache, fed window by window, reports
// exactly the statistics of a brute-force replay of every drained sample
// through one static-θ cache.
func TestShadowMatchesBruteForce(t *testing.T) {
	const window = 64
	grid := []float64{0.25, 1, 4}
	tu, err := New(Config{Capacity: 8192, K: 2, Window: window, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	profile := tu.NewProfile()

	// A small mixed workload: a cyclic hot set plus unique cold queries.
	var fed []Sample // every sample drained into the shadows so far
	var pending []Sample
	now := 0.0
	var lastRound Round
	rounds := 0
	for i := 0; i < 4*window; i++ {
		now += 1
		var s Sample
		if i%3 == 0 {
			s = sampleFor(fmt.Sprintf("cold scan %d", i), 3000, 900, now)
		} else {
			s = sampleFor(fmt.Sprintf("hot query %d", i%7), 500, 250, now)
		}
		pending = append(pending, s)
		if profile.Record(s) {
			round, ok := tu.TuneOnce()
			if !ok {
				t.Fatalf("round %d: TuneOnce declined a full window", rounds+1)
			}
			fed = append(fed, pending...)
			pending = pending[:0]
			lastRound, rounds = round, rounds+1
		}
	}
	if rounds != 4 {
		t.Fatalf("completed %d rounds, want 4", rounds)
	}

	for i, theta := range grid {
		shadow, err := core.New(core.Config{
			Capacity: 8192,
			K:        2,
			Policy:   core.LNCRA,
			Admitter: NewStaticAdmitter(theta),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range fed {
			shadow.ReferenceCanonical(core.Request{
				QueryID: s.ID, Time: s.Time, Size: s.Size, Cost: s.Cost,
			}, s.Sig)
		}
		want := shadow.Stats().CostSavingsRatio()
		got := lastRound.Scores[i].TotalCSR
		if got != want {
			t.Errorf("θ=%g: shadow cumulative CSR %.9f, brute-force replay %.9f", theta, got, want)
		}
	}
}

// bimodalTrace builds the convergence workload: a small hot working set
// that fits in cache, interleaved with unique large one-shot scans whose
// high execution cost makes their e-profit beat the hot sets' profits —
// so the static θ=1 rule admits them and thrashes the hot set, while a
// conservative θ keeps them out.
func bimodalTrace(n int) []Sample {
	samples := make([]Sample, 0, n)
	now := 0.0
	scan := 0
	for i := 0; i < n; i++ {
		now += 1
		if i%2 == 1 {
			scan++
			samples = append(samples, sampleFor(fmt.Sprintf("scan %d", scan), 5000, 25000, now))
		} else {
			samples = append(samples, sampleFor(fmt.Sprintf("hot %d", i/2%8), 1000, 1000, now))
		}
	}
	return samples
}

// replayStatic replays samples through one cache with a fixed θ.
func replayStatic(t *testing.T, samples []Sample, theta float64) core.Stats {
	t.Helper()
	c, err := core.New(core.Config{
		Capacity: 10000,
		K:        4,
		Policy:   core.LNCRA,
		Admitter: NewStaticAdmitter(theta),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		c.ReferenceCanonical(core.Request{QueryID: s.ID, Time: s.Time, Size: s.Size, Cost: s.Cost}, s.Sig)
	}
	return c.Stats()
}

// TestTunerConvergesOnBimodalWorkload drives the tuner over the bimodal
// workload and requires it to move the threshold conservative of the
// static setting, with the adaptively gated cache earning at least the
// static cache's cost savings.
func TestTunerConvergesOnBimodalWorkload(t *testing.T) {
	const window = 256
	samples := bimodalTrace(16 * window)

	tu, err := New(Config{Capacity: 10000, K: 4, Window: window})
	if err != nil {
		t.Fatal(err)
	}
	live, err := core.New(core.Config{
		Capacity: 10000,
		K:        4,
		Policy:   core.LNCRA,
		Admitter: tu.Admitter(),
	})
	if err != nil {
		t.Fatal(err)
	}
	profile := tu.NewProfile()
	for _, s := range samples {
		live.ReferenceCanonical(core.Request{QueryID: s.ID, Time: s.Time, Size: s.Size, Cost: s.Cost}, s.Sig)
		if profile.Record(s) {
			tu.TuneOnce()
		}
	}

	if got := tu.Threshold(); got <= 1 {
		t.Errorf("tuner converged to θ=%g, want a conservative setting > 1 on the thrashing workload", got)
	}
	adaptive := live.Stats().CostSavingsRatio()
	static := replayStatic(t, samples, 1).CostSavingsRatio()
	if adaptive < static {
		t.Errorf("adaptive CSR %.4f < static LNC-A CSR %.4f", adaptive, static)
	}
	if rounds := tu.Rounds(); len(rounds) == 0 || rounds[0].Seq != int64(len(rounds)) {
		t.Errorf("round history malformed: %d rounds, newest seq %d", len(rounds), rounds[0].Seq)
	}
}

// TestProfileRingOverflow checks that a profile grows with what it holds,
// holds at most one window of samples, and peeks and drains the newest
// ones in order when tuning falls behind.
func TestProfileRingOverflow(t *testing.T) {
	tu, err := New(Config{Capacity: 1 << 20, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := tu.NewProfile()
	for i := 0; i < 40; i++ {
		if i == 3 && cap(p.samples) >= 16 {
			// The producers of one tuner share a single window, so a
			// profile must not reserve a whole one up front.
			t.Errorf("profile holding 3 samples reserved %d", cap(p.samples))
		}
		p.Record(sampleFor(fmt.Sprintf("q%d", i), 100, 10, float64(i)))
	}
	peeked := p.peek()
	got := p.drain()
	if !reflect.DeepEqual(peeked, got) {
		t.Errorf("peek and drain disagree on the wrapped ring's order")
	}
	if len(got) != 16 {
		t.Fatalf("drained %d samples, want the window size 16", len(got))
	}
	for i, s := range got {
		if want := float64(24 + i); s.Time != want {
			t.Errorf("sample %d has time %g, want %g (newest window, oldest first)", i, s.Time, want)
		}
	}
	if again := p.drain(); len(again) != 0 {
		t.Errorf("second drain returned %d samples, want 0", len(again))
	}
}

// TestNewRejectsTinyWindow pins that a window below the scoring minimum is
// a construction error, not a silent no-op tuner.
func TestNewRejectsTinyWindow(t *testing.T) {
	if _, err := New(Config{Capacity: 1 << 20, Window: 8}); err == nil {
		t.Error("window 8 (< 16) must error")
	}
}

// TestShadowsHonorInvalidation checks that coherence events reach the
// shadow caches: after invalidating a relation, the shadows cannot keep
// scoring hits on its sets.
func TestShadowsHonorInvalidation(t *testing.T) {
	tu, err := New(Config{Capacity: 1 << 20, K: 2, Window: 16, Grid: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	p := tu.NewProfile()
	ref := func(times int, start float64) {
		for i := 0; i < times; i++ {
			s := sampleFor("select * from r", 100, 50, start+float64(i))
			s.Relations = []string{"r"}
			p.Record(s)
		}
	}
	ref(16, 1)
	round, ok := tu.TuneOnce()
	if !ok {
		t.Fatal("first round declined")
	}
	if round.Scores[0].CSR == 0 {
		t.Fatal("repeated references must score shadow hits before invalidation")
	}
	tu.Invalidate("r")
	ref(16, 100)
	round, ok = tu.TuneOnce()
	if !ok {
		t.Fatal("second round declined")
	}
	// After the invalidation the set must be re-fetched once (a miss) in
	// the shadow before hitting again: strictly fewer window hits than a
	// shadow that ignored the coherence event (which would hit all 16).
	if round.Scores[0].CSR >= 1 {
		t.Errorf("post-invalidation window CSR = %g, want < 1 (first reference must miss)", round.Scores[0].CSR)
	}
}

// TestRecordReportsBacklogPastWindow guards the tuning-stall regression:
// once the recorded count passes the window without a drain (a trigger
// swallowed by an in-flight round), every further reference must keep
// reporting the backlog — an exact == comparison would fire once and then
// never tune again.
func TestRecordReportsBacklogPastWindow(t *testing.T) {
	tu, err := New(Config{Capacity: 1 << 20, Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	p := tu.NewProfile()
	full := 0
	for i := 0; i < 40; i++ {
		if p.Record(sampleFor(fmt.Sprintf("q%d", i), 100, 10, float64(i+1))) {
			full++
		}
	}
	if full != 25 {
		t.Errorf("%d references reported a pending window, want 25 (every one from the 16th on)", full)
	}
	if _, ok := tu.TuneOnce(); !ok {
		t.Fatal("backlogged window must score")
	}
	if p.Record(sampleFor("fresh", 100, 10, 41)) {
		t.Error("first reference after a drain cannot report a full window")
	}
}

// TestTuneOnceSkipsTinyWindows ensures a near-empty drain cannot publish a
// parameter from noise.
func TestTuneOnceSkipsTinyWindows(t *testing.T) {
	tu, err := New(Config{Capacity: 1 << 20, Window: 1000})
	if err != nil {
		t.Fatal(err)
	}
	p := tu.NewProfile()
	for i := 0; i < minRoundSamples-1; i++ {
		p.Record(sampleFor(fmt.Sprintf("q%d", i), 100, 10, float64(i+1)))
	}
	if _, ok := tu.TuneOnce(); ok {
		t.Error("TuneOnce scored a window below minRoundSamples")
	}
}

// TestArmScores pins the /v1/admission arms surface: one entry per grid
// candidate in grid order, unseeded before any round, and carrying each
// shadow's cumulative replay standing afterwards.
func TestArmScores(t *testing.T) {
	grid := []float64{0.25, 1, 4}
	tu, err := New(Config{Capacity: 8192, K: 2, Window: 16, Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	arms := tu.ArmScores()
	if len(arms) != len(grid) {
		t.Fatalf("arms = %d, want %d", len(arms), len(grid))
	}
	for i, a := range arms {
		if a.Theta != grid[i] {
			t.Errorf("arm %d θ=%g, want grid order %g", i, a.Theta, grid[i])
		}
		if a.Seeded || a.References != 0 {
			t.Errorf("arm θ=%g scored before any round: %+v", a.Theta, a)
		}
	}

	p := tu.NewProfile()
	for i := 0; i < 16; i++ {
		p.Record(sampleFor(fmt.Sprintf("q%d", i%5), 500, 250, float64(i+1)))
	}
	if _, ok := tu.TuneOnce(); !ok {
		t.Fatal("full window must score")
	}
	for _, a := range tu.ArmScores() {
		if !a.Seeded || a.References != 16 {
			t.Errorf("arm θ=%g after one round: %+v, want seeded with 16 references", a.Theta, a)
		}
	}
}

// TestReadersDoNotWaitForRound holds the tuner mutex, as a round does
// for its whole shadow replay, and checks that the diagnostics readers
// behind GET /v1/admission still return — with the last round's state.
func TestReadersDoNotWaitForRound(t *testing.T) {
	tu, err := New(Config{Capacity: 8192, K: 2, Window: 16, Grid: []float64{0.5, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	p := tu.NewProfile()
	for i := 0; i < 16; i++ {
		p.Record(sampleFor(fmt.Sprintf("q%d", i%5), 500, 250, float64(i+1)))
	}
	if _, ok := tu.TuneOnce(); !ok {
		t.Fatal("full window must score")
	}

	tu.mu.Lock()
	defer tu.mu.Unlock()
	type result struct {
		arms   []ArmScore
		rounds []Round
	}
	done := make(chan result, 1)
	go func() { done <- result{tu.ArmScores(), tu.Rounds()} }()
	select {
	case r := <-done:
		if len(r.rounds) != 1 || r.rounds[0].Seq != 1 {
			t.Fatalf("rounds = %+v, want the one completed round", r.rounds)
		}
		for _, a := range r.arms {
			if !a.Seeded || a.References != 16 {
				t.Errorf("arm θ=%g: %+v, want the completed round's standing", a.Theta, a)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ArmScores/Rounds blocked on the tuner mutex")
	}
}
