package adlb

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
)

// Config describes an ADLB deployment inside an MPI world. Following the
// real library (and paper Fig. 2), the last Servers ranks act as ADLB
// servers; every other rank is a client (a Turbine engine or worker).
type Config struct {
	// Servers is the number of server ranks (the last Servers ranks of
	// the world). Must be >= 1 and < world size.
	Servers int
	// Types is the number of distinct work types (e.g. CONTROL and WORK).
	Types int
	// NotifyType is the work type used to wrap data-store notifications
	// so they are delivered through the normal Get path of the
	// subscribing rank (Turbine sets this to its control type).
	NotifyType int
	// Tick is the server housekeeping interval (steal retries,
	// termination-token initiation). Zero selects a default of 200µs.
	Tick time.Duration
	// Stats, if non-nil, accumulates runtime counters across all servers.
	Stats *Stats
	// DisableSteal turns off inter-server work stealing (for ablation
	// benchmarks). The paper's architecture relies on stealing to
	// load-balance across servers.
	DisableSteal bool
	// Elastic switches client membership from the static layout to a
	// dynamic roster: instead of expecting every client rank of the
	// layout to participate, each server counts only the clients that
	// have actually spoken to it (registered on their first RPC to their
	// home server). Termination, drain, and the hang watchdog then close
	// over the registered roster, so worker ranks reserved for TCP joins
	// that never arrive do not hold the run open. Used by the
	// out-of-process transport, where the world is sized for the maximum
	// worker count and joins happen mid-run.
	Elastic bool
	// StaticClients pre-registers client ranks [0, StaticClients) in the
	// elastic roster: these clients run in the hub process and always
	// participate, so termination must wait for their done handshake even
	// before their first RPC arrives. Without this, a worker-only roster
	// that goes quiet (workers joined and parked before the engine's
	// first request) would look like a drained run. Ignored unless
	// Elastic is set; Turbine sets it to its engine count.
	StaticClients int
	// WatchdogIdleTicks is the number of consecutive idle server-loop
	// iterations after which a server with every assigned client parked
	// (or departed) but work still queued declares the run hung and
	// aborts with a diagnostic instead of deadlocking. Zero selects the
	// default of 25000 ticks (~5s at the default Tick); negative disables
	// the watchdog.
	WatchdogIdleTicks int
}

func (c *Config) tick() time.Duration {
	if c.Tick <= 0 {
		return 200 * time.Microsecond
	}
	return c.Tick
}

func (c *Config) watchdogTicks() int {
	if c.WatchdogIdleTicks == 0 {
		return 25000
	}
	if c.WatchdogIdleTicks < 0 {
		return 0
	}
	return c.WatchdogIdleTicks
}

// Validate checks the configuration against a world of the given size.
func (c *Config) Validate(worldSize int) error {
	if c.Servers < 1 {
		return fmt.Errorf("adlb: config needs at least 1 server, got %d", c.Servers)
	}
	if c.Servers >= worldSize {
		return fmt.Errorf("adlb: %d servers leaves no clients in world of %d", c.Servers, worldSize)
	}
	if c.Types < 1 {
		return fmt.Errorf("adlb: config needs at least 1 work type, got %d", c.Types)
	}
	if c.NotifyType < 0 || c.NotifyType >= c.Types {
		return fmt.Errorf("adlb: notify type %d out of range [0,%d)", c.NotifyType, c.Types)
	}
	return nil
}

// Layout answers rank-role questions for a world of the given size.
type Layout struct {
	WorldSize int
	Servers   int
}

// NewLayout builds a Layout. Callers should have validated the config.
func NewLayout(worldSize, servers int) Layout {
	return Layout{WorldSize: worldSize, Servers: servers}
}

// Clients returns the number of client ranks.
func (l Layout) Clients() int { return l.WorldSize - l.Servers }

// IsServer reports whether rank is a server rank.
func (l Layout) IsServer(rank int) bool { return rank >= l.Clients() }

// ServerIndex returns the server index (0-based) of a server rank.
func (l Layout) ServerIndex(rank int) int { return rank - l.Clients() }

// ServerRank returns the world rank of server index i.
func (l Layout) ServerRank(i int) int { return l.Clients() + i }

// ServerOf returns the server rank responsible for the given client rank.
// Clients are assigned to servers in contiguous balanced blocks, as in ADLB.
func (l Layout) ServerOf(client int) int {
	idx := client * l.Servers / l.Clients()
	return l.ServerRank(idx)
}

// OwnerOf returns the server rank owning data id, by the id-stride scheme:
// ids allocated by server i satisfy id % Servers == i, so allocation is
// always owner-local.
func (l Layout) OwnerOf(id int64) int {
	if id < 0 {
		id = -id
	}
	return l.ServerRank(int(id % int64(l.Servers)))
}

// clientsOfServer returns how many clients are assigned to server index i.
func (l Layout) clientsOfServer(i int) int {
	n := 0
	for c := 0; c < l.Clients(); c++ {
		if l.ServerOf(c) == l.ServerRank(i) {
			n++
		}
	}
	return n
}

// Stats aggregates counters across all servers of a run. All fields are
// updated atomically and may be read concurrently.
type Stats struct {
	PutsLocal     atomic.Int64 // puts enqueued/delivered at the receiving server
	PutsForwarded atomic.Int64 // targeted puts forwarded to the target's server
	GetsServed    atomic.Int64 // work items delivered to clients
	GetsParked    atomic.Int64 // Get requests that had to park
	StealReqs     atomic.Int64 // steal requests sent
	StealHits     atomic.Int64 // steal responses that contained work
	ItemsStolen   atomic.Int64 // total items moved by stealing
	Notifications atomic.Int64 // data-store notifications generated
	DataOps       atomic.Int64 // data-store requests served: the sum of the Op* kinds below
	TokenRounds   atomic.Int64 // Safra termination-detection rounds begun
	// TargetedDropped counts targeted work items discarded because the
	// target client had already departed (received NO_MORE_WORK).
	TargetedDropped atomic.Int64
	// Fault-tolerance counters (see the failure model in the package doc).
	LeasesIssued    atomic.Int64 // leased work deliveries
	LeasesReclaimed atomic.Int64 // leases recovered from departed clients
	Requeued        atomic.Int64 // failed/reclaimed items put back in queue
	Poisoned        atomic.Int64 // items that exhausted their retry budget
	// UnfilledTDs gauges data-store entries still unclosed when a server
	// drains cleanly; a recovered run must leave it at zero (no leaked
	// write refcounts after contained failures).
	UnfilledTDs atomic.Int64
	// DataOps by kind of request, so that what a program pays the data
	// store for can be read off the counters rather than off the compiler:
	// one count per request, a batched request counting once.
	OpCreate        atomic.Int64
	OpStore         atomic.Int64
	OpSubscribe     atomic.Int64
	OpInsert        atomic.Int64 // container insert
	OpLookup        atomic.Int64 // container lookup
	OpEnumerate     atomic.Int64 // container enumerate
	OpWriteRefcount atomic.Int64
	OpChunkLoad     atomic.Int64 // retrieve_chunk: RetrieveChunk, or Retrieve's one id
	OpChunkStore    atomic.Int64 // batched store into a container (StoreChunk)
}

// countDataOp counts one data-store request, in total and under its kind.
func (s *Stats) countDataOp(op uint8) {
	s.DataOps.Add(1)
	switch op {
	case opCreate:
		s.OpCreate.Add(1)
	case opStore:
		s.OpStore.Add(1)
	case opSubscribe:
		s.OpSubscribe.Add(1)
	case opInsert:
		s.OpInsert.Add(1)
	case opLookup:
		s.OpLookup.Add(1)
	case opEnumerate:
		s.OpEnumerate.Add(1)
	case opWriteRefcount:
		s.OpWriteRefcount.Add(1)
	case opRetrieveChunk:
		s.OpChunkLoad.Add(1)
	case opStoreChunk:
		s.OpChunkStore.Add(1)
	}
}

// Snapshot returns a plain-struct copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		PutsLocal:       s.PutsLocal.Load(),
		PutsForwarded:   s.PutsForwarded.Load(),
		GetsServed:      s.GetsServed.Load(),
		GetsParked:      s.GetsParked.Load(),
		StealReqs:       s.StealReqs.Load(),
		StealHits:       s.StealHits.Load(),
		ItemsStolen:     s.ItemsStolen.Load(),
		Notifications:   s.Notifications.Load(),
		DataOps:         s.DataOps.Load(),
		TokenRounds:     s.TokenRounds.Load(),
		TargetedDropped: s.TargetedDropped.Load(),
		LeasesIssued:    s.LeasesIssued.Load(),
		LeasesReclaimed: s.LeasesReclaimed.Load(),
		Requeued:        s.Requeued.Load(),
		Poisoned:        s.Poisoned.Load(),
		UnfilledTDs:     s.UnfilledTDs.Load(),
		OpCreate:        s.OpCreate.Load(),
		OpStore:         s.OpStore.Load(),
		OpSubscribe:     s.OpSubscribe.Load(),
		OpInsert:        s.OpInsert.Load(),
		OpLookup:        s.OpLookup.Load(),
		OpEnumerate:     s.OpEnumerate.Load(),
		OpWriteRefcount: s.OpWriteRefcount.Load(),
		OpChunkLoad:     s.OpChunkLoad.Load(),
		OpChunkStore:    s.OpChunkStore.Load(),
	}
}

// StatsSnapshot is an immutable copy of Stats.
type StatsSnapshot struct {
	PutsLocal       int64
	PutsForwarded   int64
	GetsServed      int64
	GetsParked      int64
	StealReqs       int64
	StealHits       int64
	ItemsStolen     int64
	Notifications   int64
	DataOps         int64
	TokenRounds     int64
	TargetedDropped int64
	LeasesIssued    int64
	LeasesReclaimed int64
	Requeued        int64
	Poisoned        int64
	UnfilledTDs     int64
	OpCreate        int64
	OpStore         int64
	OpSubscribe     int64
	OpInsert        int64
	OpLookup        int64
	OpEnumerate     int64
	OpWriteRefcount int64
	OpChunkLoad     int64
	OpChunkStore    int64
}

// Serve runs the ADLB server protocol on the calling rank until global
// termination is detected and drain completes. It must be called exactly
// by the server ranks of the layout.
func Serve(c *mpi.Comm, cfg Config) error {
	if err := cfg.Validate(c.Size()); err != nil {
		return err
	}
	l := NewLayout(c.Size(), cfg.Servers)
	if !l.IsServer(c.Rank()) {
		return fmt.Errorf("adlb: Serve called on non-server rank %d", c.Rank())
	}
	s := newServer(c, cfg, l)
	return s.run()
}
