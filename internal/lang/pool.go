package lang

import (
	"fmt"
	"sync/atomic"

	"repro/internal/memo"
)

// Pool is the per-tenant engine pool of the serving layer: a bounded set
// of warm engine instances keyed by (language, tenant), with PolicyReinit
// isolation enforced at tenant boundaries. The serving model (see
// internal/serve) keeps interpreters alive across requests so that
// compile-once fragment caches amortize — but interpreter *state* is the
// tenant's session, and one tenant's Python globals must never be
// observable from another tenant's request. The pool reconciles the two:
//
//   - a checkout that finds this tenant's own warm engine reuses it as-is
//     (state is the tenant's session; parse caches are hot);
//   - at capacity, the least-recently-used engine of the same language is
//     Reset and re-tagged for the new tenant — the reset discards all
//     interpreter state (the isolation boundary) while the engine's
//     internal compile caches survive, exactly as under PolicyReinit
//     (engines guarantee Reset clears state but not parses);
//   - an LRU victim of a different language is dropped and a fresh engine
//     is created.
//
// A Pool is used by a single goroutine (each serve worker rank owns one);
// its counters are atomics only so that many ranks' pools can report into
// one run-wide PoolStats.
type Pool struct {
	host Host
	max  int
	seq  int64
	m    map[poolKey]*poolEntry
	st   *PoolStats
}

type poolKey struct{ lang, tenant string }

type poolEntry struct {
	eng     Engine
	lastUse int64
	// parse is the engine's parse-cache counters as of the last Eval, so
	// the pool can report deltas into the shared PoolStats (engines that
	// don't implement ParseCacheStatser never update it).
	parse memo.BudgetStats
}

// ParseCacheStatser is implemented by engines with a fragment parse cache
// (every script engine: python, r, julia, tcl); the pool aggregates their
// counters into PoolStats for the serving layer's /statsz.
type ParseCacheStatser interface {
	ParseCacheStats() memo.BudgetStats
}

// DefaultPoolEngines bounds resident engines per pool when the caller
// passes a non-positive max: enough for every standard language times a
// couple of tenants without letting a tenant sweep create one interpreter
// per request.
const DefaultPoolEngines = 16

// NewPool creates an engine pool bounded to max resident engines,
// reporting into st (which may be shared across ranks; nil allocates a
// private one).
func NewPool(h Host, max int, st *PoolStats) *Pool {
	if max < 1 {
		max = DefaultPoolEngines
	}
	if st == nil {
		st = &PoolStats{}
	}
	return &Pool{host: h, max: max, m: make(map[poolKey]*poolEntry), st: st}
}

// Stats returns the pool's counter block.
func (p *Pool) Stats() *PoolStats { return p.st }

// Checkout returns a warm engine for (language, tenant), creating,
// resetting, or evicting per the pool policy above. The returned engine
// is exclusively the caller's until the next Checkout on this pool.
func (p *Pool) Checkout(language, tenant string) (Engine, error) {
	e, err := p.checkout(language, tenant)
	if err != nil {
		return nil, err
	}
	return e.eng, nil
}

func (p *Pool) checkout(language, tenant string) (*poolEntry, error) {
	p.st.Checkouts.Add(1)
	p.seq++
	key := poolKey{language, tenant}
	if e, ok := p.m[key]; ok {
		e.lastUse = p.seq
		return e, nil
	}
	reg, ok := Lookup(language)
	if !ok {
		return nil, fmt.Errorf("lang: pool checkout of unregistered language %q", language)
	}
	if len(p.m) >= p.max {
		vKey, victim := p.lruEntry()
		delete(p.m, vKey)
		if vKey.lang == language {
			// Tenant switch on a warm engine: state is wiped (isolation),
			// compile caches survive (warmth).
			victim.eng.Reset()
			p.st.Resets.Add(1)
			p.st.TenantSwitches.Add(1)
			victim.lastUse = p.seq
			p.m[key] = victim
			return victim, nil
		}
		p.st.Evictions.Add(1)
	}
	eng := reg.New(p.host)
	p.st.Creates.Add(1)
	e := &poolEntry{eng: eng, lastUse: p.seq}
	p.m[key] = e
	return e, nil
}

func (p *Pool) lruEntry() (poolKey, *poolEntry) {
	var bestKey poolKey
	var best *poolEntry
	for k, e := range p.m {
		if best == nil || e.lastUse < best.lastUse {
			bestKey, best = k, e
		}
	}
	return bestKey, best
}

// Eval runs one fragment against the tenant's pooled engine: checkout,
// then runFragment — the same contained execution a rank's Table uses
// (a panicking interpreter fails this one request, is Reset, and the
// typed TaskError reports it retriable; the per-request reinit policy
// applies after), counting into the pool's stats.
func (p *Pool) Eval(language, tenant string, c Call, policy Policy) (Value, error) {
	e, err := p.checkout(language, tenant)
	if err != nil {
		return Value{}, err
	}
	res, err := runFragment(e.eng, language, c, policy, &p.st.Evals)
	if cs, ok := e.eng.(ParseCacheStatser); ok {
		now := cs.ParseCacheStats()
		p.st.ParseHits.Add(now.Hits - e.parse.Hits)
		p.st.ParseMisses.Add(now.Misses - e.parse.Misses)
		p.st.ParseBytesEvicted.Add(now.BytesEvicted - e.parse.BytesEvicted)
		e.parse = now
	}
	if policy == PolicyReinit {
		p.st.Resets.Add(1)
	}
	return res, err
}

// Resident reports how many engines the pool currently holds.
func (p *Pool) Resident() int { return len(p.m) }

// PoolStats aggregates engine-pool counters, possibly across many ranks'
// pools. Mirrored by PoolStatsSnapshot (reflection-locked in tests).
type PoolStats struct {
	// Checkouts counts every engine checkout (pool hits included).
	Checkouts atomic.Int64
	// Creates counts fresh engine instantiations.
	Creates atomic.Int64
	// Resets counts engine state wipes (tenant switches plus per-request
	// reinit policy; containment resets are counted by the engines'
	// TaskError path, not here).
	Resets atomic.Int64
	// TenantSwitches counts warm engines re-tagged across a tenant
	// boundary (always accompanied by a Reset).
	TenantSwitches atomic.Int64
	// Evictions counts resident engines dropped to make room for a
	// different language's engine.
	Evictions atomic.Int64
	// Evals counts fragment evaluations through Pool.Eval.
	Evals atomic.Int64
	// ParseHits/ParseMisses/ParseBytesEvicted aggregate the fragment
	// parse caches of pooled engines (ParseCacheStatser).
	ParseHits         atomic.Int64
	ParseMisses       atomic.Int64
	ParseBytesEvicted atomic.Int64
}

// PoolStatsSnapshot is the plain-int64 copy of PoolStats.
type PoolStatsSnapshot struct {
	Checkouts         int64 `json:"checkouts"`
	Creates           int64 `json:"creates"`
	Resets            int64 `json:"resets"`
	TenantSwitches    int64 `json:"tenant_switches"`
	Evictions         int64 `json:"evictions"`
	Evals             int64 `json:"evals"`
	ParseHits         int64 `json:"parse_hits"`
	ParseMisses       int64 `json:"parse_misses"`
	ParseBytesEvicted int64 `json:"parse_bytes_evicted"`
}

// Snapshot copies the counters.
func (s *PoolStats) Snapshot() PoolStatsSnapshot {
	return PoolStatsSnapshot{
		Checkouts:         s.Checkouts.Load(),
		Creates:           s.Creates.Load(),
		Resets:            s.Resets.Load(),
		TenantSwitches:    s.TenantSwitches.Load(),
		Evictions:         s.Evictions.Load(),
		Evals:             s.Evals.Load(),
		ParseHits:         s.ParseHits.Load(),
		ParseMisses:       s.ParseMisses.Load(),
		ParseBytesEvicted: s.ParseBytesEvicted.Load(),
	}
}
