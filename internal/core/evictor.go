package core

import "container/heap"

// EvictorKind selects the victim-search data structure. Both produce
// candidates in the policy's (tier, key) order; they trade exactness for
// speed and are compared in the A3 ablation benchmark.
type EvictorKind int

const (
	// ScanEvictor recomputes every entry's rank at selection time and
	// heap-selects the victims. Exact, O(n + k log n) per eviction for k
	// victims among n resident entries.
	ScanEvictor EvictorKind = iota
	// HeapEvictor keeps per-policy heaps with lazily refreshed keys.
	// Near-exact for time-decaying keys (LNC profits), exact for static
	// keys, O(k log n) per eviction.
	HeapEvictor
)

// String names the evictor kind.
func (k EvictorKind) String() string {
	if k == HeapEvictor {
		return "heap"
	}
	return "scan"
}

// evictor maintains the set of resident entries and selects eviction
// candidates.
type evictor interface {
	add(e *Entry, now float64)
	remove(e *Entry)
	touch(e *Entry, now float64)
	// candidates returns a minimal prefix of resident entries, in eviction
	// order, whose sizes sum to at least need. The call must not mutate
	// residency; the cache decides whether to actually evict. It returns
	// nil when the resident set cannot cover need.
	candidates(need int64, now float64) []*Entry
	count() int
}

func newEvictor(kind EvictorKind, r ranker) evictor {
	if kind == HeapEvictor {
		return &heapEvictor{r: r, items: make(map[*Entry]*heapItem)}
	}
	return &scanEvictor{r: r, pos: make(map[*Entry]int)}
}

// scanEvictor: exact selection by heap-select. Every call ranks every
// resident entry at the current time (LNC profits decay, so no rank
// survives between calls), heapifies the ranks in O(n) and pops only the
// k victims that cover need: O(n + k log n), against O(n log n) for a
// full sort that produces the same prefix. Resident entries live in a
// dense slice (a map indexes it for O(1) removal) because ranking walks
// every one of them on every call.
type scanEvictor struct {
	r    ranker
	list []*Entry
	pos  map[*Entry]int // index of each entry in list
	// scratch is the rank heap, reused across calls and cleared after
	// each so it pins no evicted entry.
	scratch []rankedEntry
}

// rankedEntry is one entry's eviction rank captured at selection time.
type rankedEntry struct {
	e    *Entry
	tier int
	key  float64
}

// before is the eviction order: tier, then key, then ID. IDs are unique
// within a cache and keys are never NaN, so the order is total and the
// victim sequence does not depend on the order of the resident list.
func (a *rankedEntry) before(b *rankedEntry) bool {
	if a.tier != b.tier {
		return a.tier < b.tier
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.e.ID < b.e.ID
}

// add registers a newly resident entry. The cache adds an entry only on
// its transition to resident, so it is never already present.
func (s *scanEvictor) add(e *Entry, _ float64) {
	s.pos[e] = len(s.list)
	s.list = append(s.list, e)
}

func (s *scanEvictor) remove(e *Entry) {
	i, ok := s.pos[e]
	if !ok {
		return
	}
	last := len(s.list) - 1
	s.list[i] = s.list[last]
	s.pos[s.list[i]] = i
	s.list[last] = nil
	s.list = s.list[:last]
	delete(s.pos, e)
}

func (s *scanEvictor) touch(*Entry, float64) {}
func (s *scanEvictor) count() int            { return len(s.list) }

func (s *scanEvictor) candidates(need int64, now float64) []*Entry {
	if need <= 0 {
		return nil
	}
	rs := s.scratch[:0]
	var total int64
	for _, e := range s.list {
		t, k := s.r.rank(e, now)
		rs = append(rs, rankedEntry{e, t, k})
		total += e.Size
	}
	s.scratch = rs
	defer clear(rs)
	if total < need {
		return nil
	}
	for i := len(rs)/2 - 1; i >= 0; i-- {
		siftDown(rs, i)
	}
	// Pop victims in order; each pop parks the minimum at the end of the
	// shrinking heap, so rs[n-1], rs[n-2], ... is the eviction order.
	n := len(rs)
	var freed int64
	for freed < need {
		n--
		rs[0], rs[n] = rs[n], rs[0]
		siftDown(rs[:n], 0)
		freed += rs[n].e.Size
	}
	out := make([]*Entry, len(rs)-n)
	for i := range out {
		out[i] = rs[len(rs)-1-i].e
	}
	return out
}

// siftDown restores the min-heap property below index i.
func siftDown(h []rankedEntry, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// heapEvictor: lazy min-heap keyed by (tier, key) captured at push time.
// Keys may go stale between touches (LNC profits decay as time advances);
// candidates refreshes stale keys at most once per entry per call, which
// bounds the work and makes the selection near-exact.
type heapItem struct {
	e    *Entry // nil when the item is stale
	tier int
	key  float64
	id   string
}

type itemHeap []*heapItem

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].tier != h[j].tier {
		return h[i].tier < h[j].tier
	}
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].id < h[j].id
}
func (h itemHeap) Swap(i, j int)          { h[i], h[j] = h[j], h[i] }
func (h *itemHeap) Push(x any)            { *h = append(*h, x.(*heapItem)) }
func (h *itemHeap) Pop() any              { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h itemHeap) Peek() *heapItem        { return h[0] }
func (h itemHeap) Empty() bool            { return len(h) == 0 }
func (h itemHeap) stale(i *heapItem) bool { return i.e == nil }

type heapEvictor struct {
	r     ranker
	h     itemHeap
	items map[*Entry]*heapItem
	n     int
}

func (he *heapEvictor) push(e *Entry, now float64) {
	t, k := he.r.rank(e, now)
	it := &heapItem{e: e, tier: t, key: k, id: e.ID}
	he.items[e] = it
	heap.Push(&he.h, it)
}

func (he *heapEvictor) add(e *Entry, now float64) {
	he.push(e, now)
	he.n++
}

func (he *heapEvictor) remove(e *Entry) {
	if it, ok := he.items[e]; ok {
		it.e = nil // lazy delete
		delete(he.items, e)
		he.n--
	}
}

func (he *heapEvictor) touch(e *Entry, now float64) {
	if it, ok := he.items[e]; ok {
		it.e = nil
	}
	he.push(e, now)
}

func (he *heapEvictor) count() int { return he.n }

// compact drops stale items when they dominate the heap.
func (he *heapEvictor) compact() {
	if len(he.h) < 64 || len(he.h) < 4*he.n {
		return
	}
	live := he.h[:0]
	for _, it := range he.h {
		if it.e != nil {
			live = append(live, it)
		}
	}
	he.h = live
	heap.Init(&he.h)
}

func (he *heapEvictor) candidates(need int64, now float64) []*Entry {
	he.compact()
	var out []*Entry
	var popped []*heapItem
	refreshed := make(map[*Entry]bool)
	var freed int64
	for freed < need && !he.h.Empty() {
		it := heap.Pop(&he.h).(*heapItem)
		e := it.e
		if e == nil {
			continue // stale
		}
		if !refreshed[e] {
			refreshed[e] = true
			// Refresh the key once per entry per call: stored LNC profits
			// decay between touches, so re-rank and re-insert to restore
			// ordering against the rest of the heap.
			t, k := he.r.rank(e, now)
			if t != it.tier || k != it.key {
				it.e = nil
				fresh := &heapItem{e: e, tier: t, key: k, id: e.ID}
				he.items[e] = fresh
				heap.Push(&he.h, fresh)
				continue
			}
		}
		out = append(out, e)
		popped = append(popped, it)
		freed += e.Size
	}
	// Non-destructive: restore popped items.
	for _, it := range popped {
		heap.Push(&he.h, it)
	}
	if freed >= need {
		return out
	}
	return nil
}
