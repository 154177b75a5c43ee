// Package lang is the language-agnostic embedding subsystem of the
// reproduction: the single place where an interpreted language is wired
// into the Swift/T runtime. The paper's contribution — interlanguage
// parallel scripting (§III) — embeds Python, R, Tcl, and the shell as
// in-process libraries callable from Swift leaf tasks; in this repo each
// of those embeddings is one Engine (Name, Eval, Reset) plus one Register
// call, and every other layer derives from the registry:
//
//   - type checking: internal/swift synthesizes the leaf builtin
//     (name(code, expr, args...) with typed extra arguments and a
//     context-typed result) from the registration's Signature, so a
//     Swift program may call any registered language;
//   - dispatch: the compiler emits a leaf call as turbine::leaf, whose
//     argument words are operands (see DecodeOperand): the id of a TD,
//     or a small scalar the compiler or engine already held, carried as
//     a typed immediate so it reaches the worker inside the work item.
//     The engine rank turns them into one Leaf record; a worker decodes
//     it and runs it through its Table with no Tcl on the way. Blobs
//     travel by id only. <name>::eval is the string surface of sh app
//     functions and direct Tcl callers;
//   - execution: core.RunCompiled calls Install with Registered() at
//     rank setup, which builds the rank's Table of lazily created
//     engines, with the paper's retain/reinit state policy (§III-C)
//     applied uniformly and every evaluation counted in one place
//     (evalContained); a leaf moves arguments and results through the
//     DataPlane, so blob element data never renders as text.
//
// The script interpreters (python, r, julia) share one Engine type that
// owns the argv contract and takes two conversions per language, and
// every script engine's parses go through one compile-once front door,
// memo.Parses. Adding a language therefore touches exactly one
// registration site; see the toy-engine test in internal/core for the
// end-to-end proof.
package lang

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/shell"
	"repro/internal/tcl"
)

// Policy selects what happens to embedded interpreter state between leaf
// tasks (paper §III-C): retain it — fast, but tasks can observe previous
// tasks' globals — or reinitialise for a clean slate.
type Policy int

// Interpreter state policies.
const (
	// PolicyRetain keeps interpreter state across tasks (the default;
	// "old interpreter state can also be used to store useful data if
	// the programmer is careful").
	PolicyRetain Policy = iota
	// PolicyReinit finalises and reinitialises the interpreter after
	// every task, clearing any state.
	PolicyReinit
)

// Call is one typed fragment-evaluation request (Engine v2): execute
// Code, then evaluate Expr and return its value. Args are pre-bound in
// the target interpreter as the variables argv1..argvN before Code runs
// (blob args become native vectors — a Python list-like view, an R
// numeric vector — with no string rendering of element data). Want is
// the kind the caller will store the result as; engines use it to
// disambiguate results with several faithful encodings (a Python list is
// a blob only when a blob is wanted, a rendering otherwise).
//
// A blob argument's bytes are lent for the call: the caller may reuse
// them once Eval returns (a leaf's view the frame they arrived in), so
// an engine keeps a copy of what it keeps (Value.Owned). The result may
// alias a lent argument; the caller consumes it before reusing them.
type Call struct {
	Code string
	Expr string
	Args []Value
	Want Kind
}

// Engine is one embedded language engine instance. Each rank owns its
// own engines (created lazily on first use, like loading an interpreter
// library into the process), so no locking is needed inside an Engine.
type Engine interface {
	// Name is the language name: the Swift builtin, the engine a leaf
	// record names, the Tcl command <name>::eval and the counter key are
	// all derived from it.
	Name() string
	// Eval executes one typed request and returns the typed result: the
	// Swift name(code, expr, args...) contract. Engines whose surface is
	// narrower map onto it: the tcl engine evaluates Code (its single
	// fixed argument) as a script; the sh engine treats Code as the
	// command word and Args as its argv. Blob Args are lent for the call
	// (see Call): what Eval keeps of one, it copies.
	Eval(c Call) (Value, error)
	// Reset discards interpreter state (PolicyReinit). Engines without
	// retained state may make this a no-op.
	Reset()
}

// Host is what the runtime provides an engine factory when a rank
// creates its engine instance.
type Host struct {
	// Out receives the language's program output (print/cat/puts/echo).
	Out io.Writer
	// Shell is the simulated machine's process table, for engines that
	// launch processes (nil outside a core run; such engines create a
	// default system lazily).
	Shell *shell.System
}

// ResultSpec pins the Swift-level result type of a language's leaf
// builtin. ResultDynamic (the zero value) lets the assignment context
// choose — `blob v = python(...)` types as blob, `float f = python(...)`
// as float — defaulting to string when unconstrained.
type ResultSpec uint8

// Result specs.
const (
	ResultDynamic ResultSpec = iota
	ResultString
	ResultInt
	ResultFloat
	ResultBlob
)

// Signature is the Swift-level calling convention of a language's leaf
// builtin — the registry's description of arg and return types, from
// which the type checker synthesizes the builtin and the compiler emits
// the typed dispatch.
type Signature struct {
	// Fixed is the number of fixed string arguments: 2 for
	// python(code, expr), 1 for tcl(code) and sh(cmd).
	Fixed int
	// Variadic permits extra typed arguments (string, int, float, or
	// blob) after the fixed prefix; they reach the engine as Call.Args
	// and are pre-bound in the interpreter as argv1..argvN.
	Variadic bool
	// Result pins the builtin's result type; ResultDynamic defers to the
	// Swift assignment context.
	Result ResultSpec
}

// Registration describes one embedded language.
type Registration struct {
	// Name is the language name; it must be a valid Swift identifier.
	Name string
	// Sig is the Swift-level signature of the leaf builtin.
	Sig Signature
	// New creates the per-rank engine instance.
	New func(h Host) Engine
}

var (
	regMu    sync.RWMutex
	registry = map[string]Registration{}
)

// Register adds a language to the registry. Registering a name twice
// panics: languages are process-global, like Tcl package names.
func Register(reg Registration) {
	if reg.Name == "" || reg.New == nil {
		panic("lang: Register needs a Name and a New factory")
	}
	if reg.Sig.Fixed < 1 || reg.Sig.Fixed > 2 {
		// Call carries at most (Code, Expr); wider fixed arity has
		// nowhere to go. Extra data travels as typed Args instead.
		panic(fmt.Sprintf("lang: Register(%q): Sig.Fixed must be 1 or 2", reg.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[reg.Name]; dup {
		panic(fmt.Sprintf("lang: language %q registered twice", reg.Name))
	}
	registry[reg.Name] = reg
}

// Unregister removes a language (for tests that register toy engines).
func Unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, name)
}

// Lookup finds a registration by language name.
func Lookup(name string) (Registration, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	reg, ok := registry[name]
	return reg, ok
}

// Registered returns a snapshot of all registrations, sorted by name.
func Registered() []Registration {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Registration, 0, len(registry))
	for _, reg := range registry {
		out = append(out, reg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counters aggregates per-language fragment-evaluation counts across all
// ranks of a run. The language set is fixed at creation (one slot per
// registered language), so counting is a lock-free map read plus an
// atomic increment and is safe from every rank goroutine concurrently.
type Counters struct {
	m map[string]*atomic.Int64
}

// NewCounters creates one counter per currently-registered language.
func NewCounters() *Counters {
	c := &Counters{m: make(map[string]*atomic.Int64)}
	for _, reg := range Registered() {
		c.m[reg.Name] = &atomic.Int64{}
	}
	return c
}

// of returns the named language's counter: nil for nil Counters or for a
// language registered after they were created, whose evaluations then go
// uncounted.
func (c *Counters) of(name string) *atomic.Int64 {
	if c == nil {
		return nil
	}
	return c.m[name]
}

// Snapshot returns the current per-language counts.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.m))
	for name, ctr := range c.m {
		out[name] = ctr.Load()
	}
	return out
}

// DataPlane is the typed data-store surface Table.Leaf uses to move
// arguments and results between turbine data (TDs) and engines without
// rendering element data through strings: blob arguments pass by
// data-store reference (only their ids appear in the leaf record) and
// the payload bytes flow store -> engine -> store directly. The Turbine
// layer implements it over the rank's ADLB client.
type DataPlane interface {
	// StoreAs stores a typed value into a TD of the named turbine type
	// ("integer", "float", "string", "blob", "void"), converting where
	// the kinds differ. Over ADLB, a leaf's store may complete with the
	// worker's next request rather than as its own.
	StoreAs(id int64, td string, v Value) error
	// LoadChunk retrieves many closed TDs as one columnar Chunk (row i
	// is ids[i]) — a million-float gather is two column buffers, not a
	// million boxed values, and a typed call's whole argument vector is
	// one load. Over ADLB this costs one RPC per owning server rather
	// than one per id, and the chunk's columns may alias the RPC response
	// frame, valid until the next data-plane call; callers either finish
	// with the rows before then (gather -> pack -> store, one contiguous
	// window) or copy rows out.
	LoadChunk(ids []int64) (Chunk, error)
}

// Table is one rank's embedded-language engines, by language name, each
// created on its first fragment (the paper's "load the interpreter
// library on demand"). A rank's engines are used by that rank alone, so
// the table needs no locking.
type Table struct {
	h      Host
	policy Policy
	slots  map[string]*slot
	// Leaf's scratch: a call's argument values, and its TD arguments'
	// ids with their places among the values. buildCall copies the
	// values into the Call; a blob's bytes stay lent (see Leaf).
	vals []Value
	ids  []int64
	at   []int
}

// slot is one language of a Table.
type slot struct {
	reg   Registration
	eng   Engine // nil until the first fragment
	evals *atomic.Int64
}

// Install builds one rank's engine table for regs and registers
// <name>::eval for each on in: the string surface of sh app-function code
// and direct Tcl callers. A compiled leaf call reaches its engine as a
// Leaf record through Table.Leaf, with no Tcl on the way. Both share the
// language's one engine instance; the state policy is applied after every
// fragment, and each evaluation is counted under the language name.
func Install(in *tcl.Interp, h Host, policy Policy, counters *Counters, regs ...Registration) *Table {
	t := &Table{h: h, policy: policy, slots: make(map[string]*slot, len(regs))}
	for _, reg := range regs {
		s := &slot{reg: reg, evals: counters.of(reg.Name)}
		t.slots[reg.Name] = s
		in.RegisterCommand(reg.Name+"::eval", func(ti *tcl.Interp, args []string) (string, error) {
			vals := make([]Value, len(args)-1)
			for i, a := range args[1:] {
				vals[i] = Str(a)
			}
			c, err := buildCall(s.reg, vals, KindString)
			if err != nil {
				return "", err
			}
			res, err := t.run(s, c)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		})
	}
	return t
}

// run evaluates one fragment on the slot's engine, creating it first if
// this is the language's first fragment on the rank.
func (t *Table) run(s *slot, c Call) (Value, error) {
	if s.eng == nil {
		s.eng = s.reg.New(t.h)
	}
	return runFragment(s.eng, s.reg.Name, c, t.policy, s.evals)
}

// Leaf runs one leaf call: its TD arguments load through dp as one
// columnar chunk (one RPC per owning server, and none when every argument
// is an immediate or rode the work item), the named engine evaluates the
// call, and the typed result is stored into the output TD. Data-plane
// failures are environmental, not a defect of the fragment, so they fail
// the task retriably.
//
// A blob argument is lent to the engine as it arrived, with no copy:
// rows a work item carried stay valid until the worker's next Get, Fail
// or Leave, rows loaded from another server until the client's next read
// or Get, and StoreAs encodes (copies) the result, which may alias them,
// before either. An engine copies what it keeps.
func (t *Table) Leaf(l *Leaf, dp DataPlane) error {
	var s *slot
	if t != nil {
		s = t.slots[l.Engine]
	}
	if s == nil {
		return fmt.Errorf("lang: leaf: no engine %q on this rank", l.Engine)
	}
	t.vals, t.ids, t.at = t.vals[:0], t.ids[:0], t.at[:0]
	for i := range l.Args {
		a := &l.Args[i]
		t.vals = append(t.vals, a.Val)
		if !a.Imm {
			t.ids = append(t.ids, a.ID)
			t.at = append(t.at, i)
		}
	}
	if len(t.ids) > 0 {
		ck, err := dp.LoadChunk(t.ids)
		if err != nil {
			return &TaskError{Engine: l.Engine, Code: "dataplane", Retriable: true, Err: err}
		}
		r := ck.Reader()
		for j, i := range t.at {
			if r.Next(); !rowValue(&r, false, &t.vals[i]) {
				err := fmt.Errorf("lang: chunk row %d has unknown kind %d", j, r.Kind())
				return &TaskError{Engine: l.Engine, Code: "dataplane", Retriable: true, Err: err}
			}
		}
	}
	c, err := buildCall(s.reg, t.vals, wantOf(l.OutType))
	if err != nil {
		return err
	}
	res, err := t.run(s, c)
	if err != nil {
		return err
	}
	if err := dp.StoreAs(l.Out, l.OutType, res); err != nil {
		return &TaskError{Engine: l.Engine, Code: "dataplane", Retriable: true, Err: err}
	}
	return nil
}

// runFragment is the one way a fragment executes, behind a Table (leaf
// records and <name>::eval) and Pool.Eval alike: a panic-contained,
// counted Eval (see evalContained), the reinit policy applied after the
// fragment whether or not it failed, and an untyped engine error prefixed
// with the language name (a TaskError passes through as-is so callers can still
// find it).
func runFragment(eng Engine, name string, c Call, policy Policy, evals *atomic.Int64) (Value, error) {
	res, err := evalContained(eng, name, c, evals)
	if policy == PolicyReinit {
		eng.Reset()
	}
	if err != nil {
		var te *TaskError
		if !errors.As(err, &te) {
			err = fmt.Errorf("%s: %w", name, err)
		}
		return Value{}, err
	}
	return res, nil
}

// evalContained runs one fragment with panic containment: a panic inside
// the engine fails this one task — typed and retriable — instead of
// tearing down the rank, and the engine is Reset before the error is
// returned (under every policy, PolicyRetain included: an interpreter
// that panicked may hold arbitrarily corrupted state, so retained state
// is forfeit on this failure path). It is also the one place an
// evaluation is counted, into evals (nil: uncounted): once the
// lang.eval.pre fault site has let the fragment through to the engine, so
// an injected fault counts nothing and a panicking evaluation counts once.
func evalContained(eng Engine, name string, c Call, evals *atomic.Int64) (res Value, err error) {
	defer func() {
		if p := recover(); p != nil {
			eng.Reset()
			err = &TaskError{
				Engine:    name,
				Code:      "panic",
				Retriable: true,
				Err:       fmt.Errorf("panic during eval: %v", p),
			}
		}
	}()
	if ferr := faultinject.At(faultinject.SiteLangEvalPre); ferr != nil {
		return Value{}, &TaskError{Engine: name, Code: "fault", Retriable: true, Err: ferr}
	}
	if evals != nil {
		evals.Add(1)
	}
	return eng.Eval(c)
}

// buildCall maps an argument vector onto the Call contract per the
// registration's signature: the fixed prefix renders to Code (and Expr
// for two-argument languages), the rest stay typed in Args.
func buildCall(reg Registration, vals []Value, want Kind) (Call, error) {
	if len(vals) < reg.Sig.Fixed || (!reg.Sig.Variadic && len(vals) != reg.Sig.Fixed) {
		return Call{}, fmt.Errorf("usage: %s takes %d argument(s), got %d",
			reg.Name, reg.Sig.Fixed, len(vals))
	}
	c := Call{Code: vals[0].Render(), Want: want}
	rest := vals[1:]
	if reg.Sig.Fixed >= 2 {
		c.Expr = vals[1].Render()
		rest = vals[2:]
	}
	if len(rest) > 0 {
		c.Args = append([]Value(nil), rest...)
	}
	return c, nil
}

// wantOf maps a turbine type name to the result kind engines should aim
// for. Unknown and void destinations want a string (which StoreAs then
// discards for void).
func wantOf(td string) Kind {
	switch td {
	case "integer":
		return KindInt
	case "float":
		return KindFloat
	case "blob":
		return KindBlob
	}
	return KindString
}
