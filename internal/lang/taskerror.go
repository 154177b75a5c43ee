package lang

import "fmt"

// TaskError is a typed task failure: the unit of the runtime's failure
// model. The embedding layer (Table, Pool) produces one whenever
// an engine fragment fails in a way the runtime understands (a panic
// inside the interpreter, an injected fault, a data-plane transfer
// error), and the worker loop reads Retriable to decide between
// requeueing the task under its lease and poisoning it immediately.
// Plain engine errors — user code raising an exception, a syntax error —
// deliberately stay untyped: rerunning the same bad fragment cannot
// succeed, so they fail the task permanently.
type TaskError struct {
	// Engine is the language name ("python", "r", ...).
	Engine string
	// Code classifies the failure: "panic", "fault", "dataplane".
	Code string
	// Retriable marks failures where a retry on a healthy engine may
	// succeed (the engine was Reset before this error was returned).
	Retriable bool
	// Err is the underlying cause.
	Err error
}

func (e *TaskError) Error() string {
	kind := "permanent"
	if e.Retriable {
		kind = "retriable"
	}
	return fmt.Sprintf("%s task failure in %s engine [%s]: %v", kind, e.Engine, e.Code, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }
