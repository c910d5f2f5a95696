package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortCandidates is the reference selection the scan evictor must
// reproduce: rank every resident entry, sort by (tier, key, ID), and take
// the minimal prefix whose sizes cover need (nil when nothing can).
func sortCandidates(r ranker, resident []*Entry, need int64, now float64) []*Entry {
	type ranked struct {
		e    *Entry
		tier int
		key  float64
	}
	rs := make([]ranked, len(resident))
	for i, e := range resident {
		t, k := r.rank(e, now)
		rs[i] = ranked{e, t, k}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].tier != rs[j].tier {
			return rs[i].tier < rs[j].tier
		}
		if rs[i].key != rs[j].key {
			return rs[i].key < rs[j].key
		}
		return rs[i].e.ID < rs[j].e.ID
	})
	var out []*Entry
	var freed int64
	for _, r := range rs {
		if freed >= need {
			return out
		}
		out = append(out, r.e)
		freed += r.e.Size
	}
	if freed >= need {
		return out
	}
	return nil
}

// TestScanEvictorMatchesSortOracle compares the heap-select scan evictor
// with the sort oracle on seeded random caches for every policy, with and
// without strict tiers. Entries are drawn from a handful of shapes (size,
// cost, reference times) so many share a rank key and the ID tie-break
// decides their order.
func TestScanEvictorMatchesSortOracle(t *testing.T) {
	policies := []PolicyKind{LRU, LRUK, LFU, LCS, LNCR, LNCRA}
	for _, policy := range policies {
		for _, strict := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/strict=%v", policy, strict), func(t *testing.T) {
				for seed := int64(1); seed <= 20; seed++ {
					checkScanAgainstOracle(t, ranker{policy: policy, strictTiers: strict}, seed)
				}
			})
		}
	}
}

func checkScanAgainstOracle(t *testing.T, r ranker, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ev := newEvictor(ScanEvictor, r)
	resident := map[*Entry]bool{}
	var all []*Entry
	now := 10.0
	sizes := []int64{64, 128, 128, 512}
	costs := []float64{10, 40, 40, 300}
	n := 20 + rng.Intn(200)
	for i := 0; i < n; i++ {
		// Integer reference times from a narrow range collide often, so
		// LRU/LRU-K/LNC keys tie; sizes and costs come from short lists.
		var refs []float64
		for j := rng.Intn(4); j >= 0; j-- {
			refs = append(refs, float64(1+rng.Intn(5)))
		}
		sort.Float64s(refs)
		e := mkEntry(fmt.Sprintf("e%04d", rng.Intn(1<<14)*1000+i), sizes[rng.Intn(len(sizes))],
			costs[rng.Intn(len(costs))], 3, refs...)
		all = append(all, e)
		ev.add(e, now)
		resident[e] = true
	}
	for step := 0; step < 30; step++ {
		switch rng.Intn(3) {
		case 0: // remove a resident entry
			e := all[rng.Intn(len(all))]
			if resident[e] {
				ev.remove(e)
				delete(resident, e)
			}
		case 1: // reference one at a tied integer time
			e := all[rng.Intn(len(all))]
			if resident[e] {
				now = float64(int(now) + rng.Intn(2))
				e.window.record(now)
				ev.touch(e, now)
			}
		}
		var live []*Entry
		var total int64
		for _, e := range all {
			if resident[e] {
				live = append(live, e)
				total += e.Size
			}
		}
		if ev.count() != len(live) {
			t.Fatalf("seed %d step %d: count %d, want %d", seed, step, ev.count(), len(live))
		}
		for _, need := range []int64{0, 1, 64, 500, total / 2, total, total + 1} {
			at := now + float64(rng.Intn(3))
			got := ev.candidates(need, at)
			want := sortCandidates(r, live, need, at)
			if (got == nil) != (want == nil) || len(got) != len(want) {
				t.Fatalf("seed %d step %d need %d: %d victims (nil %v), oracle %d (nil %v)",
					seed, step, need, len(got), got == nil, len(want), want == nil)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d need %d: victim %d is %s, oracle %s",
						seed, step, need, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

// TestScanEvictorCandidatesAllocatesOnce pins the allocation budget of a
// warm scan evictor: the returned victim slice and nothing else.
func TestScanEvictorCandidatesAllocatesOnce(t *testing.T) {
	for _, policy := range []PolicyKind{LRU, LNCRA} {
		ev := newEvictor(ScanEvictor, ranker{policy: policy})
		for i := 0; i < 500; i++ {
			ev.add(mkEntry(fmt.Sprintf("e%d", i), int64(64+i%7), float64(1+i%13), 3, float64(i)), float64(i))
		}
		ev.candidates(1000, 600) // size the scratch heap
		allocs := testing.AllocsPerRun(100, func() {
			if ev.candidates(1000, 600) == nil {
				t.Fatal("no victims")
			}
		})
		if allocs != 1 {
			t.Fatalf("%s: candidates made %v allocations per call, want 1", policy, allocs)
		}
	}
}

// TestScanEvictorScratchPinsNothing checks that the reused rank heap does
// not keep entries reachable after a call returns.
func TestScanEvictorScratchPinsNothing(t *testing.T) {
	ev := newEvictor(ScanEvictor, ranker{policy: LRU}).(*scanEvictor)
	for i := 0; i < 10; i++ {
		ev.add(mkEntry(fmt.Sprintf("e%d", i), 10, 1, 1, float64(i)), float64(i))
	}
	ev.candidates(30, 20)
	for i, r := range ev.scratch[:cap(ev.scratch)] {
		if r.e != nil {
			t.Fatalf("scratch slot %d still holds entry %s", i, r.e.ID)
		}
	}
}
