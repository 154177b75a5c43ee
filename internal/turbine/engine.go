package turbine

import (
	"errors"
	"fmt"

	"repro/internal/chunk"
	"repro/internal/faultinject"
	"repro/internal/lang"
)

// engine is one engine rank's dataflow state. A statement becomes a
// rule, released when all its inputs close (the paper's Fig. 1
// semantics), and every rule waits at the data servers (see addRule), so
// an engine keeps no wait state: ready holds only the control actions
// that wait on nothing.
type engine struct {
	env   *Env
	ready []string    // control actions with no inputs, run before the next Get
	leaf  leafScratch // turbine::leaf's scratch
}

// leafScratch is what turbine::leaf reuses from one leaf to the next: the
// decoded operands, the TD ids among them, the record's rows and the
// record. Put copies the record onto the wire, so nothing outlives the
// command.
type leafScratch struct {
	ops  []lang.Operand
	wait []int64
	rows chunk.Chunk
	rec  []byte
}

func newEngine(env *Env) *engine { return &engine{env: env} }

func (e *engine) stats() *Stats { return e.env.Cfg.TurbineStats }

// addRule registers the rule a rule command's words describe (see
// parseRule): a work rule is a script record Put for any worker, a
// control rule its action Put at this engine, each with its inputs as
// wait ids. The delivered item carries the rows of the inputs its server
// owns, so the action's reads of them cost no load.
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
	if len(inputs) == 0 {
		e.ready = append(e.ready, args[2])
		return nil
	}
	return e.env.Client.Put(TypeControl, 0, e.env.Rank, []byte(args[2]), inputs...)
}

// run is the engine main loop: drain the ready actions, then block on
// ADLB for control work — a control rule whose inputs have closed, or a
// fragment turbine::spawn released — until the run terminates. A rule
// still held then is the servers' to report (they name it by its action).
func (e *engine) run() error {
	for {
		for len(e.ready) > 0 {
			action := e.ready[0]
			e.ready = e.ready[1:]
			if err := e.control(action); err != nil {
				return err
			}
		}
		payload, ok, err := e.env.Client.Get(TypeControl)
		if err != nil || !ok {
			return err
		}
		if err := e.control(string(payload)); err != nil {
			return err
		}
	}
}

// control runs one control action on the engine's interpreter, then
// flushes the writes it made: they travel as one Get that wants nothing
// per server (see adlb.Client), and a refused one fails the action that
// made it.
func (e *engine) control(action string) error {
	if s := e.stats(); s != nil {
		s.ControlTasks.Add(1)
	}
	_, err := e.env.interp.Eval(action)
	if err == nil {
		err = e.env.Client.Flush()
	}
	if err != nil {
		return fmt.Errorf("turbine: engine %d: control action failed: %w\n  action: %.200s",
			e.env.Rank, err, action)
	}
	return nil
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
// carries the task's writes for this rank's home server; one of them
// refused there fails the task retriably, at the server.
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
			evalErr = env.Langs.Leaf(&env.rec.leaf, env.plane)
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
