package memo

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func lenCost(key string, v string) int64 { return int64(len(v)) }

func keysOf[V any](b *Budget[V]) []string {
	var out []string
	for e := b.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func TestBudgetEvictionIsLRUNotFIFO(t *testing.T) {
	b := NewBudget[string](10, lenCost)
	b.Put("a", "xxxx") // 4
	b.Put("b", "xxxx") // 4
	// Touch the older entry: under FIFO it would still be evicted first;
	// under LRU the untouched "b" must go.
	if _, ok := b.Get("a"); !ok {
		t.Fatal("a missing")
	}
	b.Put("c", "xxxx") // 4 -> budget 12 > 10, evict LRU = b
	if _, ok := b.Get("b"); ok {
		t.Fatal("b survived; eviction is not LRU")
	}
	if _, ok := b.Get("a"); !ok {
		t.Fatal("recently-used a was evicted")
	}
	if _, ok := b.Get("c"); !ok {
		t.Fatal("newly-inserted c was evicted")
	}
	st := b.Stats()
	if st.Evictions != 1 || st.BytesEvicted != 4 {
		t.Fatalf("stats = %+v, want 1 eviction of 4 bytes", st)
	}
}

func TestBudgetEvictsUntilUnderBudget(t *testing.T) {
	b := NewBudget[string](10, lenCost)
	b.Put("a", "xx")
	b.Put("b", "xx")
	b.Put("c", "xx")
	b.Put("big", "xxxxxxxxx") // 9: must evict a, b, c (LRU order)
	if got := b.Len(); got != 1 {
		t.Fatalf("Len = %d after large insert, want 1 (keys %v)", got, keysOf(b))
	}
	if b.Bytes() != 9 {
		t.Fatalf("Bytes = %d, want 9", b.Bytes())
	}
	st := b.Stats()
	if st.Evictions != 3 || st.BytesEvicted != 6 {
		t.Fatalf("stats = %+v, want 3 evictions of 6 bytes total", st)
	}
}

func TestBudgetOverwriteReaccountsCost(t *testing.T) {
	b := NewBudget[string](10, lenCost)
	b.Put("a", "xxxxxxxx") // 8
	b.Put("a", "xx")       // overwrite with 2: budget must drop to 2, not 10
	if b.Bytes() != 2 {
		t.Fatalf("Bytes = %d after shrinking overwrite, want 2", b.Bytes())
	}
	b.Put("b", "xxxxxxxx") // 8 more fits exactly: nothing evicted
	if st := b.Stats(); st.Evictions != 0 {
		t.Fatalf("shrinking overwrite leaked cost: %+v", st)
	}
	// Growing overwrite: must evict the other entry, not double-count.
	b.Put("a", "xxxxxxxxx") // 9: a=9 + b=8 = 17 > 10 -> evict LRU (b)
	if _, ok := b.m["b"]; ok {
		t.Fatal("b survived growing overwrite of a")
	}
	if b.Bytes() != 9 {
		t.Fatalf("Bytes = %d after growing overwrite, want 9", b.Bytes())
	}
	if got, _ := b.Get("a"); got != "xxxxxxxxx" {
		t.Fatalf("overwrite did not replace value: %q", got)
	}
}

func TestBudgetOversizeEntriesAreNotCached(t *testing.T) {
	b := NewBudget[string](4, lenCost)
	b.Put("small", "xx")
	b.Put("huge", "xxxxxxxxxx") // 10 > 4: rejected, small untouched
	if _, ok := b.m["huge"]; ok {
		t.Fatal("oversize entry was cached")
	}
	if _, ok := b.Get("small"); !ok {
		t.Fatal("oversize insert evicted the resident entry")
	}
	if st := b.Stats(); st.Oversize != 1 {
		t.Fatalf("stats = %+v, want Oversize 1", st)
	}
	// Overwriting a resident key with an oversize value removes the stale
	// cached value instead of serving it forever.
	b.Put("small", "xxxxxxxxxx")
	if _, ok := b.m["small"]; ok {
		t.Fatal("oversize overwrite left the stale value cached")
	}
	if b.Bytes() != 0 {
		t.Fatalf("Bytes = %d after oversize overwrite, want 0", b.Bytes())
	}
}

func TestBudgetGetOrComputeErrorsStayUncached(t *testing.T) {
	b := NewBudget[string](100, lenCost)
	calls := 0
	boom := errors.New("parse error")
	compute := func() (string, error) {
		calls++
		if calls < 3 {
			return "", boom
		}
		return "ok", nil
	}
	for i := 0; i < 2; i++ {
		if _, err := b.GetOrCompute("k", compute); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want %v", i, err, boom)
		}
		if b.Len() != 0 {
			t.Fatal("failed compute entered the cache")
		}
	}
	v, err := b.GetOrCompute("k", compute)
	if err != nil || v != "ok" {
		t.Fatalf("third call = (%q, %v), want (ok, nil)", v, err)
	}
	if calls != 3 {
		t.Fatalf("compute ran %d times, want 3 (errors uncached, success cached)", calls)
	}
	if _, err := b.GetOrCompute("k", compute); err != nil || calls != 3 {
		t.Fatalf("fourth call recomputed (calls=%d) or failed (%v)", calls, err)
	}
}

func TestBudgetHitMissCounters(t *testing.T) {
	b := NewBudget[string](100, lenCost)
	b.Get("absent")
	b.Put("k", "v")
	b.Get("k")
	b.Get("k")
	st := b.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits 1 miss", st)
	}
	if st.CurBytes != 1 || st.Entries != 1 {
		t.Fatalf("gauges = %+v, want CurBytes 1 Entries 1", st)
	}
}

func TestBudgetClampsDegenerateCosts(t *testing.T) {
	// A zero/negative cost function must not make entries free (the cache
	// would grow without bound).
	b := NewBudget[int](3, func(string, int) int64 { return 0 })
	for i := 0; i < 10; i++ {
		b.Put(fmt.Sprintf("k%d", i), i)
	}
	if b.Len() > 3 {
		t.Fatalf("Len = %d under zero-cost function, want <= 3", b.Len())
	}
}

func TestBudgetUnitCostBoundsEntryCount(t *testing.T) {
	// Under UnitCost the budget is an entry count, whatever the values
	// weigh: the interpreters' parse caches are bounded this way.
	b := NewBudget[string](3, UnitCost[string])
	for i := 0; i < 10; i++ {
		b.Put(fmt.Sprintf("k%d", i), strings.Repeat("x", 100*i))
	}
	if b.Len() != 3 || b.Bytes() != 3 {
		t.Fatalf("Len = %d, Bytes = %d, want 3 entries at cost 1 each", b.Len(), b.Bytes())
	}
	if got := strings.Join(keysOf(b), ","); got != "k9,k8,k7" {
		t.Fatalf("resident keys = %s, want the three newest", got)
	}
}
