package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must have
// beyond it: a p99 over 300 samples rests on three values, so the tail
// reported is the highest percentile that keeps ten.
const minBeyond = 10

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
func rankIndex(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(idx, n-1))
}

// quantile reads quantile q (nearest rank) off ascending samples; zero
// when there are none.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

// median of unsorted samples.
func median(xs []int64) int64 { return quantile(sortedCopy(xs), 0.5) }

// tail reads the highest percentile not above want that still has at
// least minBeyond samples beyond it. It returns the value and the
// quantile actually used; ok is false when the samples cannot support any
// tail (fewer than minBeyond+1 of them).
func tail(sorted []int64, want float64) (v int64, q float64, ok bool) {
	n := len(sorted)
	if n <= minBeyond {
		return 0, 0, false
	}
	idx := min(rankIndex(n, want), n-1-minBeyond)
	return sorted[idx], float64(idx+1) / float64(n), true
}

// tailOrMedian is tail for per-layer figures: when too few samples leave
// ten beyond any percentile at or above the median, it reports the
// median (quantile 0.5) rather than a "tail" below it.
func tailOrMedian(sorted []int64, want float64) (int64, float64) {
	if v, q, ok := tail(sorted, want); ok && q >= 0.5 {
		return v, q
	}
	return quantile(sorted, 0.5), 0.5
}

// medianFloat is the median of float samples (the mean of the middle two
// for even counts), used for per-run aggregates such as set-up times.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// span is one timed interval of the trace: a layer boundary crossed by a
// request. Parent is the ID of the span that caused it (0 for roots); Req
// ties the spans of one request together.
type span struct {
	ID, Parent int64
	Req        int64
	Name       string
	Start, End int64
}

// dur is the span's wall duration.
func (s span) dur() int64 { return s.End - s.Start }

// selfTime is the part of parent's interval that none of its children
// covers: the parent's duration minus the union of the child intervals,
// each clipped to the parent. Overlapping children count once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// rungSelf is a ladder rung's self time: the median per-call time of the
// rung minus the median of the rung it wraps.
func rungSelf(outer, inner []int64) int64 { return median(outer) - median(inner) }

// backlogGrowing reports whether the open loop's queue grew across a rate
// rung. wait[i] is how long request i (in due order) waited for a free
// connection or the generator; the backlog grows when the mean wait of
// the last quarter of the rung exceeds the first quarter's by more than
// slack. A stable queue, however deep, keeps its wait flat.
func backlogGrowing(wait []int64, slack int64) bool {
	n := len(wait)
	if n < 8 {
		return false
	}
	q := n / 4
	mean := func(xs []int64) float64 {
		s := 0.0
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return mean(wait[n-q:]) > mean(wait[:q])+float64(slack)
}
