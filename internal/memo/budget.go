// Package memo provides the one bounded string-keyed memoization cache
// behind every compile-once pipeline in the repo: internal/tcl memoizes
// source -> *Script and expression ASTs, internal/pylite, internal/rlite,
// internal/jlite and the tcl engine memoize their fragments through one
// front door over it (Parses), and internal/serve memoizes whole compiled
// programs — so a fragment that is evaluated once per task is parsed
// exactly once per rank.
//
// The cache deliberately stores only compile results keyed by source text
// (or source hash) — never values or bindings — so cached entries are
// immutable and safe to replay against any interpreter state.
package memo

// Budget is a cost-aware cache: entries carry a caller-defined cost
// (typically "bytes this compiled artifact pins in memory") and eviction
// is least-recently-used under a total cost budget. Serving workloads — a
// long-lived process caching compiled programs and fragments across
// requests — have entries that differ in size by orders of magnitude,
// where a count bound would let one tenant's handful of huge programs
// evict thousands of small hot fragments (the memory-tracked applyCache
// idiom). Interpreter-internal parse caches, whose bound only caps
// pathological programs (generated one-shot scripts with unique text),
// use the same type with UnitCost, which makes the budget an entry count.
//
// A Budget is not safe for concurrent use; each interpreter owns its own
// and a shared cache wraps it in a lock.
type Budget[V any] struct {
	max  int64
	cost func(key string, v V) int64

	cur int64
	m   map[string]*budgetEntry[V]
	// LRU list: head = most recently used, tail = eviction candidate.
	head, tail *budgetEntry[V]

	stats BudgetStats
}

type budgetEntry[V any] struct {
	key        string
	v          V
	cost       int64
	prev, next *budgetEntry[V]
}

// BudgetStats are a Budget's lifetime counters. CurBytes and Entries are
// gauges; the rest are monotonic.
type BudgetStats struct {
	Hits         int64
	Misses       int64
	Evictions    int64
	BytesEvicted int64
	// Oversize counts inserts rejected because a single entry's cost
	// exceeded the whole budget (caching it would evict everything else
	// and then itself never fit a second tenant's working set).
	Oversize int64
	CurBytes int64
	Entries  int64
}

// UnitCost prices every entry at 1, turning a Budget's bound into an
// entry count.
func UnitCost[V any](string, V) int64 { return 1 }

// NewBudget creates a cost-aware cache bounded to maxBytes total cost.
// costFn reports the cost of one entry; non-positive costs are clamped to
// 1 so a degenerate cost function cannot make the cache unbounded.
// Non-positive budgets are clamped to 1 (everything oversize: the cache
// stays empty but stays safe).
func NewBudget[V any](maxBytes int64, costFn func(key string, v V) int64) *Budget[V] {
	if maxBytes < 1 {
		maxBytes = 1
	}
	if costFn == nil {
		panic("memo: NewBudget needs a cost function")
	}
	return &Budget[V]{max: maxBytes, cost: costFn, m: make(map[string]*budgetEntry[V], 64)}
}

// Get looks up a key, promoting a hit to most-recently-used.
func (b *Budget[V]) Get(key string) (V, bool) {
	if e, ok := b.m[key]; ok {
		b.stats.Hits++
		b.touch(e)
		return e.v, true
	}
	b.stats.Misses++
	var zero V
	return zero, false
}

// Put inserts or overwrites a key. Overwriting re-accounts the budget
// under the new value's cost (the old cost is released, not leaked) and
// promotes the entry. Entries whose cost alone exceeds the budget are
// not cached (counted in Oversize); an overwrite that becomes oversize
// removes the stale cached value rather than serving it forever.
func (b *Budget[V]) Put(key string, v V) {
	c := b.cost(key, v)
	if c < 1 {
		c = 1
	}
	if e, ok := b.m[key]; ok {
		if c > b.max {
			b.remove(e)
			b.stats.Oversize++
			return
		}
		b.cur += c - e.cost
		e.v = v
		e.cost = c
		b.touch(e)
		b.evictOver()
		return
	}
	if c > b.max {
		b.stats.Oversize++
		return
	}
	e := &budgetEntry[V]{key: key, v: v, cost: c}
	b.m[key] = e
	b.pushFront(e)
	b.cur += c
	b.evictOver()
}

// GetOrCompute returns the cached value for key, computing and caching it
// on a miss. A failed compute is returned without entering the cache, so
// compile errors are never memoized — the one memoization policy every
// interpreter shares, kept in one place.
func (b *Budget[V]) GetOrCompute(key string, compute func() (V, error)) (V, error) {
	if v, ok := b.Get(key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		var zero V
		return zero, err
	}
	b.Put(key, v)
	return v, nil
}

// Len returns the current entry count.
func (b *Budget[V]) Len() int { return len(b.m) }

// Bytes returns the current total cost.
func (b *Budget[V]) Bytes() int64 { return b.cur }

// Stats returns a snapshot of the cache's counters with the gauges
// filled in.
func (b *Budget[V]) Stats() BudgetStats {
	s := b.stats
	s.CurBytes = b.cur
	s.Entries = int64(len(b.m))
	return s
}

// evictOver drops least-recently-used entries until the budget holds.
func (b *Budget[V]) evictOver() {
	for b.cur > b.max && b.tail != nil {
		e := b.tail
		b.remove(e)
		b.stats.Evictions++
		b.stats.BytesEvicted += e.cost
	}
}

func (b *Budget[V]) remove(e *budgetEntry[V]) {
	b.unlink(e)
	delete(b.m, e.key)
	b.cur -= e.cost
}

func (b *Budget[V]) unlink(e *budgetEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if b.head == e {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if b.tail == e {
		b.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (b *Budget[V]) pushFront(e *budgetEntry[V]) {
	e.next = b.head
	if b.head != nil {
		b.head.prev = e
	}
	b.head = e
	if b.tail == nil {
		b.tail = e
	}
}

func (b *Budget[V]) touch(e *budgetEntry[V]) {
	if b.head == e {
		return
	}
	b.unlink(e)
	b.pushFront(e)
}
