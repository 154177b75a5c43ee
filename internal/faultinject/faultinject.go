// Package faultinject is the deterministic fault-injection harness of
// the reproduction's fault-tolerance layer. Production code declares
// named sites — fixed points on the task-execution path where a fault
// may be injected — and tests arm those sites with a schedule: on the
// nth hit of the site, fail in a chosen way (return an error, panic,
// simulate a rank crash, or delay). Scheduling is purely hit-counted;
// there is no time-based randomness, so a chaos test that arms
// "panic on hit 3 of lang.eval.pre" observes the same fault on every
// run regardless of machine speed.
//
// The disarmed fast path is a single atomic load, so sites may sit on
// hot paths (work delivery, fragment evaluation) at no measurable cost.
//
// Typical test usage:
//
//	defer faultinject.Reset()
//	faultinject.Arm(faultinject.SiteLangEvalPre, faultinject.Plan{
//	    Hit: 3, Action: faultinject.ActPanic, Msg: "injected interpreter crash",
//	})
//
// Sites honour four actions. ActError makes the site report an injected
// error to its caller; ActPanic makes it panic (exercising the panic
// containment above it); ActCrash makes it return an error wrapping
// ErrCrash, which callers on rank main loops interpret as "this rank
// dies now" (a worker leaves mid-task, a server exits its loop without
// draining); ActDelay sleeps and then proceeds normally.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one fault-injection point. Every call into the harness
// (At, Armed, Arm, Hits) takes a Site, and the swiftvet faultsites
// analyzer requires the argument to be one of the declared constants
// below — an ad-hoc literal would create a site this registry does not
// know about.
type Site string

// Named injection sites. Each constant is referenced by exactly one
// production call point; tests arm them by name.
const (
	// SiteServerLoop fires in the ADLB server message loop, once per
	// dispatched message. ActCrash makes the server rank exit its loop
	// without draining, simulating silent server death.
	SiteServerLoop Site = "adlb.server.loop"
	// SiteGetDeliver fires on the ADLB server just before work is
	// handed to a client (both the direct-serve and parked paths).
	SiteGetDeliver Site = "adlb.get.deliver"
	// SitePutTargeted fires when the ADLB server accepts a targeted Put
	// (a control rule, or a location-pinned task).
	SitePutTargeted Site = "adlb.put.targeted"
	// SiteLangEvalPre fires inside the contained evaluation region of a
	// rank's engine table (lang.Install) and of lang.Pool, just before the
	// embedded engine evaluates a fragment.
	// ActPanic here exercises engine panic containment.
	SiteLangEvalPre Site = "lang.eval.pre"
	// SiteDataPlaneStore fires in the turbine data plane before a typed
	// result store (StoreAs / StoreChunk).
	SiteDataPlaneStore Site = "dataplane.store"
	// SiteWorkerTask fires in the turbine worker loop after a leaf task
	// is received and before it is evaluated. ActCrash makes the worker
	// rank die mid-task (its lease is reclaimed by the server).
	SiteWorkerTask Site = "turbine.worker.task"
	// SiteTCPConnDrop fires in the TCP transport's per-connection read
	// loop, once per received frame. ActError makes the reader treat the
	// connection as dropped, simulating a mid-run network failure.
	SiteTCPConnDrop Site = "mpi.tcp.conn.drop"
	// SiteTCPHeartbeat fires in the worker-side heartbeat loop before
	// each heartbeat frame is sent. ActError suppresses that heartbeat,
	// simulating a wedged-but-connected peer the hub must time out.
	SiteTCPHeartbeat Site = "mpi.tcp.heartbeat"
	// SiteTCPFrame fires in the TCP transport's frame write path.
	// ActError makes the writer emit a torn frame (a hostile length
	// prefix) that the receiving codec must reject deterministically.
	SiteTCPFrame Site = "mpi.tcp.frame"
)

// Action selects how an armed site fails.
type Action int

// Injection actions.
const (
	// ActError makes At return an injected error.
	ActError Action = iota
	// ActPanic makes At panic with the plan's message.
	ActPanic
	// ActCrash makes At return an error wrapping ErrCrash; rank main
	// loops treat it as the death of the rank.
	ActCrash
	// ActDelay makes At sleep for the plan's Delay, then proceed.
	ActDelay
)

// ErrCrash is wrapped by errors injected with ActCrash. Callers decide
// what rank death means at their site (see IsCrash).
var ErrCrash = errors.New("faultinject: simulated rank crash")

// Plan is one armed fault: at the Hit-th hit of the site (1-based;
// 0 means the first), perform Action for Times consecutive hits
// (0 means exactly once; negative means every hit from Hit onward).
type Plan struct {
	Hit    int
	Times  int
	Action Action
	// Msg is included in injected errors and panic values.
	Msg string
	// Delay is the ActDelay sleep; 0 selects 1ms.
	Delay time.Duration
}

// covers reports whether the plan fires on the n-th hit of its site.
func (p Plan) covers(n int) bool {
	start := p.Hit
	if start <= 0 {
		start = 1
	}
	if n < start {
		return false
	}
	if p.Times < 0 {
		return true
	}
	times := p.Times
	if times == 0 {
		times = 1
	}
	return n < start+times
}

type site struct {
	hits  int
	plans []Plan
}

var (
	armed atomic.Bool // fast path: anything armed anywhere?
	mu    sync.Mutex
	sites = map[Site]*site{}
)

// Arm schedules a fault at the named site. Multiple plans may be armed
// at one site; the first plan covering a hit wins. Hit counting starts
// at the first At call after the site is first armed.
func Arm(name Site, p Plan) {
	mu.Lock()
	defer mu.Unlock()
	st := sites[name]
	if st == nil {
		st = &site{}
		sites[name] = st
	}
	st.plans = append(st.plans, p)
	armed.Store(true)
}

// Reset disarms every site and zeroes all hit counters. Tests defer it.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = map[Site]*site{}
	armed.Store(false)
}

// Hits reports how many times the named site has been hit since the
// harness was last armed (0 when nothing is armed: the disarmed fast
// path does not count).
func Hits(name Site) int {
	mu.Lock()
	defer mu.Unlock()
	if st := sites[name]; st != nil {
		return st.hits
	}
	return 0
}

// At is the production-side hook: each named call point invokes it once
// per pass. Disarmed, it is a single atomic load returning nil. Armed,
// it counts the hit and applies the first covering plan: returns an
// injected error (ActError), panics (ActPanic), returns an error
// wrapping ErrCrash (ActCrash), or sleeps and returns nil (ActDelay).
func At(name Site) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	st := sites[name]
	if st == nil {
		// Count hits at unarmed sites too while the harness is armed, so
		// tests can assert a site was (or was not) reached.
		st = &site{}
		sites[name] = st
	}
	st.hits++
	n := st.hits
	var plan *Plan
	for i := range st.plans {
		if st.plans[i].covers(n) {
			plan = &st.plans[i]
			break
		}
	}
	mu.Unlock()
	if plan == nil {
		return nil
	}
	switch plan.Action {
	case ActPanic:
		panic(fmt.Sprintf("faultinject: %s: %s", name, plan.Msg))
	case ActCrash:
		return fmt.Errorf("faultinject: %s: %s: %w", name, plan.Msg, ErrCrash)
	case ActDelay:
		d := plan.Delay
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
		return nil
	}
	return fmt.Errorf("faultinject: %s: injected error: %s", name, plan.Msg)
}

// Armed reports whether any plan is currently armed at the named site.
// Production code can use it to gate expensive fault bookkeeping; tests
// use it to assert arming state without tripping the hit counter.
func Armed(name Site) bool {
	if !armed.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	st := sites[name]
	return st != nil && len(st.plans) > 0
}

// IsCrash reports whether err is an ActCrash injection.
func IsCrash(err error) bool { return errors.Is(err, ErrCrash) }
