package turbine

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/adlb"
	"repro/internal/chunk"
	"repro/internal/faultinject"
	"repro/internal/lang"
)

// rule is one dataflow rule: when all inputs are closed, the action is
// released. This realises the paper's Fig. 1 semantics: statements become
// rules, and execution order is determined by data availability. An
// engine holds control rules only, whose actions it runs itself; a work
// rule is one Put carrying its inputs, which the data servers hold until
// they close and then queue for a worker.
type rule struct {
	action  string
	pending int // unclosed inputs remaining
}

// engine holds the control rules of one engine rank.
type engine struct {
	env     *Env
	ready   []string          // actions whose inputs are all closed
	waiting map[int64][]*rule // input id -> rules blocked on it
	closed  map[int64]bool    // ids known closed (local cache)
	subbed  map[int64]bool    // ids with an active subscription
	ask     []int64           // addControl's scratch: the ids one rule must ask about
	leaf    leafScratch       // turbine::leaf's scratch
}

// leafScratch is what turbine::leaf reuses from one leaf to the next: the
// decoded operands, the TD ids among them and the record's rows. Put
// copies the record onto the wire, so nothing outlives the command.
type leafScratch struct {
	ops  []lang.Operand
	wait []int64
	rows chunk.Chunk
}

func newEngine(env *Env) *engine {
	return &engine{
		env:     env,
		waiting: make(map[int64][]*rule),
		closed:  make(map[int64]bool),
		subbed:  make(map[int64]bool),
	}
}

func (e *engine) stats() *Stats { return e.env.Cfg.TurbineStats }

// addRule registers the rule a rule command's words describe (see
// parseRule): a work rule is Put with its inputs as wait ids, and a
// control rule waits here.
func (e *engine) addRule(inputs []int64, args []string) error {
	work, target, priority, err := parseRule(args)
	if err != nil {
		return err
	}
	if s := e.stats(); s != nil {
		s.RulesCreated.Add(1)
	}
	if work {
		rec, err := scriptRecord(args[2])
		if err != nil {
			return err
		}
		return e.env.Client.Put(TypeWork, priority, target, rec, inputs...)
	}
	return e.addControl(inputs, &rule{action: args[2]})
}

// addControl subscribes a control rule to its unclosed inputs; with none
// pending it is immediately ready. Every input not already known closed
// or subscribed goes into one Subscribe call — one RPC per owning server,
// whether the rule waits on two TDs or on a container's members.
func (e *engine) addControl(inputs []int64, r *rule) error {
	// Subscribe once per id; the notification wakes all waiters. Marking
	// an id subscribed as it is collected keeps a repeated input from
	// being asked about twice.
	e.ask = e.ask[:0]
	for _, id := range inputs {
		if !e.closed[id] && !e.subbed[id] {
			e.subbed[id] = true
			e.ask = append(e.ask, id)
		}
	}
	if len(e.ask) > 0 {
		isClosed, err := e.env.Client.Subscribe(e.env.Rank, e.ask)
		if err != nil {
			for _, id := range e.ask {
				delete(e.subbed, id)
			}
			return err
		}
		for i, id := range e.ask {
			if isClosed[i] {
				delete(e.subbed, id)
				e.closed[id] = true
			}
		}
	}
	for _, id := range inputs {
		if e.closed[id] {
			continue
		}
		r.pending++
		e.waiting[id] = append(e.waiting[id], r)
	}
	if r.pending == 0 {
		e.ready = append(e.ready, r.action)
	}
	return nil
}

// onClosed processes a data-close notification, readying the rules it
// leaves with no input pending.
func (e *engine) onClosed(id int64) {
	if s := e.stats(); s != nil {
		s.Notifications.Add(1)
	}
	e.closed[id] = true
	delete(e.subbed, id)
	rules := e.waiting[id]
	delete(e.waiting, id)
	for _, r := range rules {
		r.pending--
		if r.pending == 0 {
			e.ready = append(e.ready, r.action)
		}
	}
}

// run is the engine main loop: drain locally ready actions, then block on
// ADLB for control work (notifications or distributed control fragments).
func (e *engine) run() error {
	for {
		for len(e.ready) > 0 {
			action := e.ready[0]
			e.ready = e.ready[1:]
			if s := e.stats(); s != nil {
				s.ControlTasks.Add(1)
			}
			if _, err := e.env.interp.Eval(action); err != nil {
				return fmt.Errorf("turbine: engine %d: control action failed: %w\n  action: %.200s",
					e.env.Rank, err, action)
			}
		}
		payload, ok, err := e.env.Client.Get(TypeControl)
		if err != nil {
			return err
		}
		if !ok {
			return e.stallDiagnostic()
		}
		if id, isNote := adlb.DecodeNotification(payload); isNote {
			e.onClosed(id)
			continue
		}
		// A distributed control fragment from another engine.
		if s := e.stats(); s != nil {
			s.ControlTasks.Add(1)
		}
		if _, err := e.env.interp.Eval(string(payload)); err != nil {
			return fmt.Errorf("turbine: engine %d: control task failed: %w\n  task: %.200s",
				e.env.Rank, err, payload)
		}
	}
}

// stallDiagnostic runs when the engine's Get loop ends: a clean
// termination should leave no control rule waiting on an unfilled TD.
// If any remain — a task was poisoned upstream, or the program never
// writes the data — name them instead of returning a silent success. (The
// servers name the work rules they still hold the same way.)
func (e *engine) stallDiagnostic() error {
	stalled := map[*rule]bool{}
	var ids []int64
	for id, rules := range e.waiting {
		live := false
		for _, r := range rules {
			if r.pending > 0 {
				stalled[r] = true
				live = true
			}
		}
		if live {
			ids = append(ids, id)
		}
	}
	if len(stalled) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// A rule is named by its action, truncated as control-action errors are.
	var actions []string
	for r := range stalled {
		actions = append(actions, fmt.Sprintf("%.200s", r.action))
	}
	sort.Strings(actions)
	if len(actions) > 5 {
		actions = append(actions[:5], "...")
	}
	return fmt.Errorf("turbine: engine %d: run terminated with %d dataflow rule(s) stalled on %d unfilled TD(s) %v; stalled rules: %q",
		e.env.Rank, len(stalled), len(ids), ids, actions)
}

// runWorker is the worker main loop: pull leaf tasks under a lease and
// run them with failure containment. A task is a record (see
// dataplane.go): a leaf call goes straight to its engine through the
// rank's lang.Table, a script to the rank's Tcl interpreter; either reads
// its (already closed) inputs from the data store, most from the rows its
// work item carried, and stores its outputs. A failed task is reported
// to the server via Fail — retriable failures (engine panics, injected
// faults, data-plane errors) requeue under the task's retry budget;
// deterministic evaluation errors poison the task immediately. The lease
// of a successful task is settled implicitly by the next Get, which also
// carries a leaf record's result when this rank's home server owns it.
func runWorker(env *Env) error {
	for {
		payload, leaseID, ok, err := env.Client.GetLeased(TypeWork)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := faultinject.At(faultinject.SiteWorkerTask); err != nil {
			if faultinject.IsCrash(err) {
				// Simulated mid-task rank death: the task is held under an
				// outstanding lease, and Leave is the transport's crash
				// notification — the server reclaims the lease and
				// requeues the task for a surviving worker.
				if err := env.Client.Leave(); err != nil {
					return err
				}
				return nil
			}
			if err := env.failTask(leaseID, err, true); err != nil {
				return err
			}
			continue
		}
		if s := env.Cfg.TurbineStats; s != nil {
			s.LeafTasks.Add(1)
		}
		evalErr, retriable := evalLeafContained(env, payload)
		if evalErr == nil {
			continue
		}
		// The server's poison error appends the task payload; don't repeat
		// it in the reason.
		reason := fmt.Sprintf("worker %d: leaf task failed: %v", env.Rank, evalErr)
		if err := env.failTask(leaseID, errors.New(reason), retriable); err != nil {
			return err
		}
	}
}

// failTask counts and reports one task failure under its lease. The
// Fail RPC returns an error only when the run is ending (e.g. the task
// was poisoned and the world aborted), in which case the worker exits.
func (env *Env) failTask(leaseID int64, cause error, retriable bool) error {
	if s := env.Cfg.TurbineStats; s != nil {
		s.TaskFailures.Add(1)
	}
	return env.Client.Fail(leaseID, cause.Error(), retriable)
}

// evalLeafContained runs one leaf task's record with panic containment:
// a panic anywhere under the task (Tcl command, engine glue) fails the
// task retriably instead of killing the rank. Typed failures
// (lang.TaskError) carry their own retriability; untyped evaluation
// errors are deterministic user-code failures and are not retried.
func evalLeafContained(env *Env, payload []byte) (err error, retriable bool) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic in leaf task: %v", p)
			retriable = true
		}
	}()
	script, isLeaf, evalErr := env.rec.decode(payload)
	if evalErr == nil {
		if isLeaf {
			evalErr = env.Langs.Leaf(&env.rec.leaf, dataPlane{cl: env.Client, leaf: true})
		} else {
			_, evalErr = env.interp.Eval(script)
		}
	}
	if evalErr != nil {
		var te *lang.TaskError
		if errors.As(evalErr, &te) {
			return evalErr, te.Retriable
		}
		return evalErr, false
	}
	return nil, false
}
