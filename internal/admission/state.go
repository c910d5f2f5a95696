package admission

import (
	"fmt"
	"math"
	"sort"
)

// This file is the snapshot-persistence surface of the tuner: the
// published θ, the per-candidate smoothed scores, and the buffered
// shadow-profile windows can be exported as plain data and restored into
// a freshly constructed Tuner, so a restarted server resumes admission at
// the tuned aggressiveness instead of the static θ = 1.
//
// The shadow caches themselves are deliberately NOT persisted: each one
// is a full cache image (as large as the live cache's metadata), and a
// restored shadow would immediately diverge from one rebuilt from live
// traffic anyway. They restart cold and re-warm over the next few tuning
// rounds, while the EMA scores — the slow-moving signal that actually
// picks θ — survive the restart.

// ArmState is one grid candidate's cross-round scoring state.
type ArmState struct {
	// Theta is the candidate threshold, matched against the restored
	// tuner's grid.
	Theta float64
	// Score is the cross-round EMA of windowed CSR; Seeded reports
	// whether it has observed a round yet.
	Score  float64
	Seeded bool
}

// TunerState is the exportable form of a Tuner: the published parameter,
// the per-candidate EMAs, and the reference samples buffered in every
// profile (the shadow-profile windows) at capture time.
type TunerState struct {
	// Theta is the published admission threshold.
	Theta float64
	// Arms carries each grid candidate's scoring state, in grid order.
	Arms []ArmState
	// Samples are the buffered-but-not-yet-scored reference samples of
	// all profiles, merged in time order. A restored tuner replays them
	// into a fresh profile so the window in flight at shutdown is not
	// lost.
	Samples []Sample
}

// peek copies the profile's buffered samples in arrival order without
// draining them, so an export does not disturb the live tuning cadence.
func (p *Profile) peek() []Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ordered()
}

// ExportState captures the tuner's published θ, candidate scores and
// buffered profile windows. It is safe for concurrent use with Record and
// TuneOnce; the capture is a consistent read under the tuner's lock.
func (t *Tuner) ExportState() *TunerState {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &TunerState{Theta: t.th.Load(), Arms: make([]ArmState, len(t.arms))}
	for i, a := range t.arms {
		st.Arms[i] = ArmState{Theta: a.theta, Score: a.score, Seeded: a.seeded}
	}
	for _, p := range t.profiles {
		st.Samples = append(st.Samples, p.peek()...)
	}
	sortSamples(st.Samples)
	return st
}

// sortSamples orders samples by time (stable, preserving per-profile
// arrival order on ties) — the same merge order a tuning-round snapshot
// uses, which also makes exports deterministic.
func sortSamples(ss []Sample) {
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].Time < ss[j].Time })
}

// RestoreState pours an exported state into the tuner: θ is published,
// candidate scores are matched to the grid by threshold value, and the
// buffered samples are re-recorded into a dedicated profile so the next
// tuning round scores them. The tuner must be freshly constructed (no
// completed rounds); candidates in the state that are not on the grid are
// ignored, and grid candidates absent from the state keep their cold
// start.
func (t *Tuner) RestoreState(st *TunerState) error {
	if !(st.Theta > 0) || math.IsInf(st.Theta, 0) {
		// The negated comparison also catches NaN, which `<= 0` lets
		// through and which would poison every admission test.
		return fmt.Errorf("admission: restore: threshold %g is not a positive finite number", st.Theta)
	}
	for i := range st.Samples {
		s := &st.Samples[i]
		// A NaN cost or time would flow into the next shadow round's
		// windowed CSR and corrupt the EMAs the whole mechanism runs on.
		if math.IsNaN(s.Cost) || math.IsInf(s.Cost, 0) || math.IsNaN(s.Time) || math.IsInf(s.Time, 0) {
			return fmt.Errorf("admission: restore: sample %d (%s) has non-finite cost %g / time %g",
				i, s.ID, s.Cost, s.Time)
		}
	}
	t.mu.Lock()
	if t.seq != 0 {
		t.mu.Unlock()
		return fmt.Errorf("admission: restore into a tuner that already ran %d rounds", t.seq)
	}
	byTheta := make(map[float64]*shadowArm, len(t.arms))
	for _, a := range t.arms {
		byTheta[a.theta] = a
	}
	for _, as := range st.Arms {
		if math.IsNaN(as.Score) || math.IsInf(as.Score, 0) {
			continue // a poisoned EMA would win or lose every comparison forever
		}
		if a, ok := byTheta[as.Theta]; ok {
			a.score, a.seeded = as.Score, as.Seeded
		}
	}
	t.th.Store(st.Theta)
	t.publishView(nil) // no rounds yet: seq is 0
	t.mu.Unlock()
	if len(st.Samples) > 0 {
		p := t.NewProfile()
		for i := range st.Samples {
			p.Record(st.Samples[i])
		}
	}
	return nil
}
