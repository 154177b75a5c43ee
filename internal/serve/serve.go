// Package serve is the long-lived multi-tenant interlanguage service:
// swiftd. Where internal/core runs one Swift/T program per world and
// tears everything down, serve keeps one warm ADLB world resident and
// accepts work over an API — whole Swift programs and typed single
// fragment calls — from many tenants at once.
//
// # Serving model
//
// One warm world, three client roles (then the ADLB server ranks):
//
//   - rank 0, the gateway: a client that never parks. API handlers
//     submit fragment tasks through it (one mutex: an ADLB client
//     carries one outstanding RPC).
//   - rank 1, the collector: a client parked in Get over the
//     response work type. Workers target their results at it; it routes
//     each to the waiting request by id.
//   - ranks 2..2+Workers-1, the fragment workers: ordinary leased-Get
//     clients. Each owns a lang.Pool of per-tenant engines, so repeat
//     fragments hit warm interpreters (and their byte-budgeted parse
//     caches) while tenant switches reset state at the boundary.
//
// Tasks and responses cross the world as data-plane chunk frames (wire.go:
// header rows, then one row per typed value, blobs as raw bytes). JSON and
// base64 are the HTTP edge's encoding: EvalFragment converts and validates
// arguments once on the way in and the result once on the way out.
//
// The gateway holds the world open: an idle serving world would otherwise
// be exactly the all-parked state Safra termination collects, but a
// client that never parks keeps its home server from ever reporting
// passive. Shutdown lets go in order — the gateway sends the collector a
// sentinel and Leaves, the collector Leaves on the sentinel, and ordinary
// quiescence then drains the parked workers. Once Close has begun, new
// and in-flight callers get "serve: shutting down", not a place in a
// departing world.
//
// Program submissions do not enter the warm world's queues: each runs
// through the re-entrant core.RunCompiled in an ephemeral world of its
// own, with compiled programs cached in a byte-budgeted LRU keyed by
// source hash (repeat submissions share one parse).
//
// Admission control is per tenant: a concurrency bound, a wait-queue
// bound behind it, and a priority that orders the tenant's fragments in
// the ADLB queues. Arrivals past both bounds get a typed OverloadError
// (HTTP 429) — a saturated tenant backs up its own queue, not the
// service.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adlb"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/memo"
	"repro/internal/stc"
)

// Work types of the warm fragment world.
const (
	typeTask = 0 // gateway -> worker: one fragment evaluation
	typeResp = 1 // worker -> collector: its result
)

// Config shapes the service.
type Config struct {
	// Workers is the number of fragment worker ranks in the warm world
	// (0 = default 2).
	Workers int
	// Servers is the number of ADLB server ranks in the warm world
	// (0 = default 1).
	Servers int
	// PoolEngines bounds each worker's resident engine pool
	// (0 = lang.DefaultPoolEngines).
	PoolEngines int
	// ProgramCacheBytes budgets the compiled-program cache
	// (0 = default 8 MiB).
	ProgramCacheBytes int64
	// RequestTimeout bounds one fragment request end to end
	// (0 = default 30s).
	RequestTimeout time.Duration
	// Tenants maps tenant names to their admission classes; tenants not
	// listed get the TenantConfig defaults.
	Tenants map[string]TenantConfig
}

// The ephemeral world of a program submission: engines, workers, servers.
const (
	programEngines = 1
	programWorkers = 2
	programServers = 1
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Servers <= 0 {
		c.Servers = 1
	}
	if c.ProgramCacheBytes <= 0 {
		c.ProgramCacheBytes = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server is one resident swiftd instance.
type Server struct {
	cfg Config

	stats     ServeStats
	adlbStats *adlb.Stats
	poolStats *lang.PoolStats
	adm       *admission

	progMu   sync.Mutex
	programs *memo.Budget[*stc.Output]

	gwMu sync.Mutex
	gw   *adlb.Client

	nextReq atomic.Int64
	pendMu  sync.Mutex
	pending map[int64]chan fragResp

	stop      chan struct{}
	closeOnce sync.Once
	worldErr  chan error
	gwReady   chan struct{}
}

// New starts the warm world and returns once the gateway is accepting
// work. Close shuts it down.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		adlbStats: &adlb.Stats{},
		poolStats: &lang.PoolStats{},
		adm:       &admission{gates: make(map[string]*tenantGate), configs: cfg.Tenants},
		programs: memo.NewBudget[*stc.Output](cfg.ProgramCacheBytes,
			func(key string, out *stc.Output) int64 {
				// Source-scaled cost: compiled Tcl plus the seed fragment,
				// plus fixed overhead for the parsed script and bookkeeping.
				return int64(len(out.Program)+len(out.Main)) + 256
			}),
		pending:  make(map[int64]chan fragResp),
		stop:     make(chan struct{}),
		worldErr: make(chan error, 1),
		gwReady:  make(chan struct{}),
	}
	go func() { s.worldErr <- s.runWorld() }()
	select {
	case <-s.gwReady:
		return s, nil
	case err := <-s.worldErr:
		if err == nil {
			err = fmt.Errorf("serve: warm world exited before the gateway came up")
		}
		return nil, err
	}
}

// Close shuts the service down: no new work, the gateway departed, warm
// world drained. It returns the world's exit error.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	return <-s.worldErr
}

// Stats returns a full multi-layer counter snapshot (the /statsz payload).
func (s *Server) Stats() Snapshot {
	s.progMu.Lock()
	progStats := s.programs.Stats()
	s.progMu.Unlock()
	return Snapshot{
		Serve:        s.stats.Snapshot(),
		ProgramCache: progStats,
		Pool:         s.poolStats.Snapshot(),
		Tenants:      s.adm.snapshot(),
		ADLB:         s.adlbStats.Snapshot(),
	}
}

// FragmentRequest is one typed fragment call.
type FragmentRequest struct {
	Tenant  string      `json:"tenant"`
	Session string      `json:"session,omitempty"`
	Lang    string      `json:"lang"`
	Code    string      `json:"code"`
	Expr    string      `json:"expr,omitempty"`
	Args    []WireValue `json:"args,omitempty"`
	Want    string      `json:"want,omitempty"`
	Reinit  bool        `json:"reinit,omitempty"`
}

// FragmentResult is a completed fragment call: the typed value plus
// whatever the interpreter printed while evaluating it.
type FragmentResult struct {
	Value  WireValue `json:"value"`
	Output string    `json:"output,omitempty"`
}

// EvalError is a fragment evaluation failure reported by the engine (as
// opposed to a rejection or timeout): the user's code failed.
type EvalError struct {
	Msg       string
	Retriable bool
}

func (e *EvalError) Error() string { return e.Msg }

// errShuttingDown answers work arriving at, or still waiting on, a server
// whose Close has begun.
var errShuttingDown = errors.New("serve: shutting down")

// TimeoutError is a fragment request abandoned at the deadline. The task
// may still complete in the warm world; its late response is dropped.
type TimeoutError struct {
	After time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("serve: fragment request timed out after %v", e.After)
}

// EvalFragment submits one typed fragment call to the warm world and
// waits for its result. Unknown tenants run under the default admission
// class. Session-sticky: calls with the same (tenant, session) land on
// the same worker rank, so interpreter state set by one call is visible
// to the next (within the pool's capacity and isolation rules).
func (s *Server) EvalFragment(req FragmentRequest) (FragmentResult, error) {
	if _, ok := lang.Lookup(req.Lang); !ok {
		return FragmentResult{}, fmt.Errorf("serve: unknown language %q", req.Lang)
	}
	if req.Tenant == "" {
		return FragmentResult{}, fmt.Errorf("serve: request without tenant")
	}
	gate := s.adm.gate(req.Tenant)
	release, err := gate.acquire(req.Tenant)
	if err != nil {
		return FragmentResult{}, err
	}
	defer release()
	task, err := newFragTask(req)
	if err != nil {
		return FragmentResult{}, err
	}

	s.stats.Fragments.Add(1)
	id := s.nextReq.Add(1)
	task.ReqID = id
	ch := make(chan fragResp, 1)
	s.pendMu.Lock()
	s.pending[id] = ch
	s.pendMu.Unlock()
	defer func() {
		s.pendMu.Lock()
		delete(s.pending, id)
		s.pendMu.Unlock()
	}()

	payload, err := task.encode()
	if err != nil {
		return FragmentResult{}, err
	}
	target := adlb.AnyRank
	if req.Session != "" {
		target = s.sessionRank(req.Tenant, req.Session)
	}
	s.gwMu.Lock()
	select {
	case <-s.stop:
		// gatewayLoop sends its sentinel and Leaves under gwMu: a Put after
		// that would block forever, holding gwMu and the tenant's slot.
		s.gwMu.Unlock()
		return FragmentResult{}, errShuttingDown
	default:
	}
	// The Put is one-way until flushed, and the gateway next waits on
	// ch, not on ADLB: flush it now.
	err = s.gw.Put(typeTask, gate.cfg.Priority, target, payload)
	if err == nil {
		err = s.gw.Flush()
	}
	s.gwMu.Unlock()
	if err != nil {
		return FragmentResult{}, fmt.Errorf("serve: submit: %w", err)
	}

	// A stopped Timer, not time.After: this is the per-fragment hot path,
	// and time.After would pin a timer (and its channel) until
	// RequestTimeout elapses even after the fragment completes — under
	// sustained load that is thousands of live timers for requests that
	// finished in microseconds.
	timer := time.NewTimer(s.cfg.RequestTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.Err != "" {
			s.stats.FragmentErrors.Add(1)
			return FragmentResult{}, &EvalError{Msg: r.Err, Retriable: r.Retriable}
		}
		return FragmentResult{Value: ToWire(r.Value), Output: r.Output}, nil
	case <-timer.C:
		s.stats.FragmentTimeouts.Add(1)
		return FragmentResult{}, &TimeoutError{After: s.cfg.RequestTimeout}
	case <-s.stop:
		return FragmentResult{}, errShuttingDown
	}
}

// sessionRank maps a (tenant, session) to a fixed worker rank, making
// sessions sticky: the session's interpreter state lives in that worker's
// pool.
func (s *Server) sessionRank(tenant, session string) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	h.Write([]byte{0})
	h.Write([]byte(session))
	return workerRank0 + int(h.Sum32()%uint32(s.cfg.Workers))
}

// ProgramRequest is one whole-program submission.
type ProgramRequest struct {
	Tenant string `json:"tenant"`
	Source string `json:"source"`
}

// ProgramResult is a completed program run.
type ProgramResult struct {
	Stdout   string        `json:"stdout"`
	CacheHit bool          `json:"cache_hit"`
	Elapsed  time.Duration `json:"elapsed"`
}

// RunProgram compiles (or fetches from the byte-budgeted cache) and runs
// one Swift program under the tenant's admission class, in an ephemeral
// world of its own.
func (s *Server) RunProgram(req ProgramRequest) (ProgramResult, error) {
	if req.Tenant == "" {
		return ProgramResult{}, fmt.Errorf("serve: request without tenant")
	}
	gate := s.adm.gate(req.Tenant)
	release, err := gate.acquire(req.Tenant)
	if err != nil {
		return ProgramResult{}, err
	}
	defer release()
	select {
	case <-s.stop:
		return ProgramResult{}, errShuttingDown
	default:
	}

	sum := sha256.Sum256([]byte(req.Source))
	key := hex.EncodeToString(sum[:])
	s.progMu.Lock()
	out, hit := s.programs.Get(key)
	if !hit {
		var cerr error
		out, cerr = stc.Compile(req.Source)
		if cerr != nil {
			s.progMu.Unlock()
			return ProgramResult{}, fmt.Errorf("serve: compile: %w", cerr)
		}
		s.programs.Put(key, out)
	}
	s.progMu.Unlock()

	s.stats.ProgramRuns.Add(1)
	res, err := core.RunCompiled(out, core.Config{
		Engines: programEngines,
		Workers: programWorkers,
		Servers: programServers,
	})
	if err != nil {
		return ProgramResult{}, err
	}
	return ProgramResult{Stdout: res.Stdout, CacheHit: hit, Elapsed: res.Elapsed}, nil
}
