package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// TenantConfig is one tenant's admission class.
type TenantConfig struct {
	// Priority is the ADLB put priority of this tenant's fragments
	// (higher runs first when queues are contended).
	Priority int
	// MaxConcurrent bounds requests of this tenant executing at once
	// (0 = default 4).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an execution slot beyond
	// MaxConcurrent; an arrival past the bound is rejected immediately
	// with an OverloadError rather than queued (0 = default 8, negative
	// = no queueing: reject as soon as all slots are busy).
	MaxQueue int
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	return c
}

// OverloadError is the typed 429-style rejection: the tenant's execution
// slots and waiting queue are both full. The request was not executed and
// is safe to retry after backoff.
type OverloadError struct {
	Tenant string
	Queued int // requests already waiting when this one arrived
	Limit  int // the tenant's MaxQueue
	InRun  int // requests executing
	MaxRun int // the tenant's MaxConcurrent
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: tenant %q over capacity (%d running of %d, %d queued of %d)",
		e.Tenant, e.InRun, e.MaxRun, e.Queued, e.Limit)
}

// TenantStats counts one tenant's admission outcomes. Mirrored by
// TenantStatsSnapshot (reflection-locked in tests).
type TenantStats struct {
	// Admitted counts requests that obtained an execution slot.
	Admitted atomic.Int64
	// Rejected counts requests refused with an OverloadError.
	Rejected atomic.Int64
	// Queued counts admitted requests that had to wait for a slot first.
	Queued atomic.Int64
	// Waiting gauges requests currently waiting for a slot.
	Waiting atomic.Int64
	// InFlight gauges requests currently executing.
	InFlight atomic.Int64
}

// TenantStatsSnapshot is the plain-int64 copy of TenantStats.
type TenantStatsSnapshot struct {
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Queued   int64 `json:"queued"`
	Waiting  int64 `json:"waiting"`
	InFlight int64 `json:"in_flight"`
}

// Snapshot copies the counters.
func (s *TenantStats) Snapshot() TenantStatsSnapshot {
	return TenantStatsSnapshot{
		Admitted: s.Admitted.Load(),
		Rejected: s.Rejected.Load(),
		Queued:   s.Queued.Load(),
		Waiting:  s.Waiting.Load(),
		InFlight: s.InFlight.Load(),
	}
}

// tenantGate is one tenant's admission state: a slot semaphore plus a
// bounded count of waiters.
type tenantGate struct {
	cfg     TenantConfig
	sem     chan struct{}
	waiting atomic.Int64
	stats   TenantStats
}

func newTenantGate(cfg TenantConfig) *tenantGate {
	cfg = cfg.withDefaults()
	return &tenantGate{cfg: cfg, sem: make(chan struct{}, cfg.MaxConcurrent)}
}

// acquire claims an execution slot, waiting in the bounded queue if all
// slots are busy. It returns a release func on admission, or an
// OverloadError when the queue is full too.
func (g *tenantGate) acquire(tenant string) (func(), error) {
	release := func() {
		g.stats.InFlight.Add(-1)
		<-g.sem
	}
	select {
	case g.sem <- struct{}{}:
		g.stats.Admitted.Add(1)
		g.stats.InFlight.Add(1)
		return release, nil
	default:
	}
	// All slots busy: join the bounded wait queue or reject.
	if n := g.waiting.Add(1); int(n) > g.cfg.MaxQueue {
		g.waiting.Add(-1)
		g.stats.Rejected.Add(1)
		return nil, &OverloadError{
			Tenant: tenant,
			Queued: g.cfg.MaxQueue, Limit: g.cfg.MaxQueue,
			InRun: g.cfg.MaxConcurrent, MaxRun: g.cfg.MaxConcurrent,
		}
	}
	g.stats.Queued.Add(1)
	g.stats.Waiting.Add(1)
	g.sem <- struct{}{}
	g.stats.Waiting.Add(-1)
	g.waiting.Add(-1)
	g.stats.Admitted.Add(1)
	g.stats.InFlight.Add(1)
	return release, nil
}

// admission maps tenants to their gates, creating default-class gates for
// tenants not explicitly configured.
type admission struct {
	mu      sync.Mutex
	gates   map[string]*tenantGate
	configs map[string]TenantConfig
}

func (a *admission) gate(tenant string) *tenantGate {
	a.mu.Lock()
	defer a.mu.Unlock()
	if g, ok := a.gates[tenant]; ok {
		return g
	}
	g := newTenantGate(a.configs[tenant])
	a.gates[tenant] = g
	return g
}

// snapshot copies every tenant's admission counters.
func (a *admission) snapshot() map[string]TenantStatsSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]TenantStatsSnapshot, len(a.gates))
	for name, g := range a.gates {
		out[name] = g.stats.Snapshot()
	}
	return out
}
