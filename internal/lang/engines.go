package lang

// The standard engines: the language embeddings of the paper — §III-C
// Python and R, §III-A Tcl, the shell interface, and the Julia-like
// surface §IV sketches — each an Engine over the corresponding
// interpreter package. These init-time Register calls are the single
// wiring site per language — the Swift type checker, the compiled leaf
// record, and the per-rank installation all derive from the registry.
//
// All of them speak the typed calling convention: extra arguments bind
// as argv1..argvN before the fragment runs (blob arguments become
// native vectors), and results return typed. python, r and julia are one
// engine type (scriptEngine) that owns that contract and takes two
// conversions per language. Only the Tcl and shell engines — whose
// surfaces are strings by nature — render argument values, and even they
// pass blob payloads as raw bytes, never as formatted element text.

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/blob"
	"repro/internal/jlite"
	"repro/internal/memo"
	"repro/internal/pylite"
	"repro/internal/rlite"
	"repro/internal/shell"
	"repro/internal/tcl"
)

func init() {
	script := Signature{Fixed: 2, Variadic: true}
	Register(Registration{Name: "python", Sig: script, New: func(h Host) Engine {
		in := pylite.New()
		if h.Out != nil {
			in.Out = h.Out
		}
		return &scriptEngine[pylite.Value, *pylite.Expr]{name: "python", in: in, bind: pyValue, result: pyResult}
	}})
	Register(Registration{Name: "r", Sig: script, New: func(h Host) Engine {
		in := rlite.New()
		if h.Out != nil {
			in.Out = h.Out
		}
		return &scriptEngine[rlite.Value, string]{name: "r", in: rInterp{in}, bind: rValue, result: rResult}
	}})
	Register(Registration{Name: "julia", Sig: script, New: func(h Host) Engine {
		in := jlite.New()
		if h.Out != nil {
			in.Out = h.Out
		}
		return &scriptEngine[jlite.Value, *jlite.Expr]{name: "julia", in: in, bind: jlValue, result: jlResult}
	}})
	Register(Registration{Name: "tcl", Sig: Signature{Fixed: 1, Variadic: true}, New: newTclEngine})
	Register(Registration{Name: "sh", Sig: Signature{Fixed: 1, Variadic: true, Result: ResultString}, New: newShellEngine})
}

// argName is the pre-bound variable name of extra argument i (0-based).
// Every leaf binds its arguments by name, so the first few names are
// made once rather than formatted per argument per leaf.
func argName(i int) string {
	if i < len(argNames) {
		return argNames[i]
	}
	return fmt.Sprintf("argv%d", i+1)
}

var argNames = func() (names [16]string) {
	for i := range names {
		names[i] = fmt.Sprintf("argv%d", i+1)
	}
	return names
}()

// scriptInterp is what a script engine needs of an interpreter whose
// native values are N and parsed expressions X: argv binding, the code
// and expression halves of a fragment, Reset, and its parse cache's
// counters. ParseExpr also reports whether evaluating the expression now
// provably keeps nothing it reads, which lets it view lent blobs (Call).
type scriptInterp[N, X any] interface {
	SetGlobal(name string, v N)
	DelGlobal(name string)
	Exec(code string) error
	ParseExpr(expr string) (x X, keepsNothing bool, err error)
	EvalParsed(x X) (N, error)
	Reset()
	ParseStats() memo.BudgetStats
}

// scriptEngine embeds a script interpreter — pylite, rlite or jlite, the
// paper's "interpreter as a native code library" — and owns the argv
// contract for all of them. What differs per language is two
// conversions: bind turns an argument into its native binding (a blob
// its lent bytes when lent is set, or their copy), and result turns the
// expression's native value back into a Value, given the call and the
// natives bound for it (so a result that is still one of them can leave
// under that argument's own metadata).
type scriptEngine[N, X any] struct {
	name   string
	in     scriptInterp[N, X]
	bind   func(a *Value, lent bool) (N, error)
	result func(v N, c Call, bound []N) (Value, error)
	argn   int // argv bindings currently installed
	bound  []N // Eval's scratch: the natives bound for the call
}

func (e *scriptEngine[N, X]) Name() string { return e.name }

// Eval binds the call's arguments as argv1..argvN, runs Code, then
// evaluates Expr. A fragment with blank Code whose Expr keeps nothing
// views its blob arguments where they lie, unbound when Eval returns
// (the next Eval rebinds or deletes argv anyway); others bind copies.
func (e *scriptEngine[N, X]) Eval(c Call) (Value, error) {
	var x X
	var err error
	lent := blank(c.Code)
	if lent && !blank(c.Expr) {
		if x, lent, err = e.in.ParseExpr(c.Expr); err != nil {
			return Value{}, err
		}
	}
	// Convert every argument before binding any: a failure mid-list must
	// not leave a partial argv set behind (nothing is bound, argn is
	// untouched, and the previous task's bindings get cleaned next time).
	e.bound = e.bound[:0]
	defer func() {
		clear(e.bound) // the interpreter holds what it keeps
		for i := range c.Args {
			if lent && c.Args[i].Kind() == KindBlob {
				e.in.DelGlobal(argName(i))
			}
		}
	}()
	for i := range c.Args {
		v, err := e.bind(&c.Args[i], lent)
		if err != nil {
			return Value{}, err
		}
		e.bound = append(e.bound, v)
	}
	bound := e.bound
	for i, v := range bound {
		e.in.SetGlobal(argName(i), v)
	}
	// Stale argv bindings must not leak between tasks: under PolicyRetain a
	// fragment referencing argvN beyond its own argument count would
	// otherwise silently read a previous task's data instead of failing.
	for i := len(bound); i < e.argn; i++ {
		e.in.DelGlobal(argName(i))
	}
	e.argn = len(bound)
	if !blank(c.Code) {
		if err := e.in.Exec(c.Code); err != nil {
			return Value{}, err
		}
		if !blank(c.Expr) {
			if x, _, err = e.in.ParseExpr(c.Expr); err != nil {
				return Value{}, err
			}
		}
	}
	if blank(c.Expr) {
		return Str(""), nil
	}
	v, err := e.in.EvalParsed(x)
	if err != nil {
		return Value{}, err
	}
	return e.result(v, c, bound)
}

// blank reports whether a fragment half has nothing to run.
func blank(src string) bool { return strings.TrimSpace(src) == "" }

// lentBlob returns a blob argument's bytes as lent, or a copy of them.
func lentBlob(a *Value, lent bool) blob.Blob {
	if lent {
		return a.AsBlob()
	}
	return a.Owned().AsBlob()
}

func (e *scriptEngine[N, X]) Reset() { e.in.Reset() }

func (e *scriptEngine[N, X]) ParseCacheStats() memo.BudgetStats { return e.in.ParseStats() }

// soleBlob returns the call's blob argument when it has exactly one: a
// fresh vector result adopts its element view. With several, provenance
// is ambiguous.
func soleBlob(c Call) (blob.Blob, bool) {
	var sole blob.Blob
	n := 0
	for _, a := range c.Args {
		if a.Kind() == KindBlob {
			sole = a.AsBlob()
			n++
		}
	}
	return sole, n == 1
}

// pyValue converts a typed argument into its Python binding: scalars
// enter as native numbers/strings, blobs as zero-copy Vec views.
func pyValue(a *Value, lent bool) (pylite.Value, error) {
	switch a.Kind() {
	case KindInt:
		n, err := a.AsInt()
		return n, err
	case KindFloat:
		f, err := a.AsFloat()
		return f, err
	case KindBlob:
		return pylite.NewVec(lentBlob(a, lent))
	}
	return a.Render(), nil
}

// pyResult converts an expression result back into a typed value. A Vec
// leaves with its backing blob intact (bit-exact, dims and element kind
// preserved); a fresh numeric list packs into a blob only when the
// caller wants one, and renders as text otherwise (the historical
// string behaviour).
func pyResult(v pylite.Value, c Call, _ []pylite.Value) (Value, error) {
	switch x := v.(type) {
	case int64:
		return Int(x), nil
	case float64:
		return Float(x), nil
	case string:
		return Str(x), nil
	case *pylite.Vec:
		if c.Want == KindBlob {
			return BlobOf(x.B), nil
		}
		// Rendered like a list in string/number contexts, matching how
		// fresh lists (and R vectors) behave there.
	case bool:
		if c.Want == KindInt || c.Want == KindFloat {
			if x {
				return Int(1), nil
			}
			return Int(0), nil
		}
	case *pylite.List:
		if c.Want == KindBlob {
			b, err := pylite.PackValues(x.Items)
			if err != nil {
				return Value{}, err
			}
			return BlobOf(b), nil
		}
	case nil:
		return Str(""), nil
	}
	return Str(pylite.Str(v)), nil
}

// rInterp is rlite as a scriptInterp. A fragment keeps nothing of a
// host's bytes, since a blob binds as a vector decoded into R's own
// memory, so deciding needs no parse: an expression is its source.
type rInterp struct{ *rlite.Interp }

func (r rInterp) ParseExpr(expr string) (string, bool, error) { return expr, true, nil }
func (r rInterp) EvalParsed(expr string) (rlite.Value, error) { return r.EvalExpr(expr) }

// rValue converts a typed argument into its R binding: numbers become
// length-1 numeric vectors, blobs decode into real numeric vectors so R
// fragments apply native vectorised arithmetic to them (R's own copy,
// lent or not).
func rValue(a *Value, _ bool) (rlite.Value, error) {
	switch a.Kind() {
	case KindInt:
		n, err := a.AsInt()
		return rlite.Num(float64(n)), err
	case KindFloat:
		f, err := a.AsFloat()
		return rlite.Num(f), err
	case KindBlob:
		return rlite.NumVecFromBlob(a.AsBlob())
	}
	return rlite.Chr(a.Render()), nil
}

// rResult converts an R result back into a typed value. Numeric vectors
// pack into blobs when a blob is wanted, under rProto's element view,
// but a bound argument's vector never written in place is still that
// argument's bytes. Scalars return as numbers; everything else deparses.
func rResult(v rlite.Value, c Call, bound []rlite.Value) (Value, error) {
	if nv, ok := v.(*rlite.NumVec); ok {
		switch {
		case c.Want == KindBlob:
			proto, own := rProto(nv, c, bound)
			if own && !nv.Written {
				return BlobOf(proto), nil // the argument's own bytes
			}
			return BlobOf(blob.PackLike(nv.V, proto)), nil
		case (c.Want == KindInt || c.Want == KindFloat) && len(nv.V) == 1:
			return Float(nv.V[0]), nil
		}
	}
	return Str(rlite.Deparse(v)), nil
}

// rProto picks the blob a numeric result repacks under. A vector that is
// (still) a bound blob argument — R names share the vector object, so
// identity survives assignment — keeps that argument's own element kind
// and dims, bit-exact (own is set); a fresh vector adopts the sole blob
// argument's; with several, the safe flat float64 form wins.
func rProto(nv *rlite.NumVec, c Call, bound []rlite.Value) (proto blob.Blob, own bool) {
	for i, a := range c.Args {
		if a.Kind() == KindBlob && bound[i] == rlite.Value(nv) {
			return a.AsBlob(), true
		}
	}
	if proto, ok := soleBlob(c); ok {
		return proto, false
	}
	return blob.Blob{Elem: blob.ElemF64}, false
}

// jlValue converts a typed argument into its jlite binding: scalars
// enter as native numbers/strings, blobs as zero-copy 1-based Vec views.
func jlValue(a *Value, lent bool) (jlite.Value, error) {
	switch a.Kind() {
	case KindInt:
		n, err := a.AsInt()
		return n, err
	case KindFloat:
		f, err := a.AsFloat()
		return f, err
	case KindBlob:
		return jlite.NewVec(lentBlob(a, lent))
	}
	return a.Render(), nil
}

// jlResult converts an expression result back into a typed value. A Vec
// leaves with its backing blob intact (bit-exact, dims and element kind
// preserved). A fresh vector packs into a blob only when the caller
// wants one (see packFresh). Ranges materialise like fresh vectors.
func jlResult(v jlite.Value, c Call, _ []jlite.Value) (Value, error) {
	switch x := v.(type) {
	case int64:
		return Int(x), nil
	case float64:
		return Float(x), nil
	case string:
		return Str(x), nil
	case bool:
		if c.Want == KindInt || c.Want == KindFloat {
			if x {
				return Int(1), nil
			}
			return Int(0), nil
		}
	case *jlite.Vec:
		if c.Want == KindBlob {
			return BlobOf(x.B), nil
		}
		// Rendered like a vector literal in string contexts, matching
		// fresh arrays (and the other engines' list behaviour there).
	case *jlite.Arr:
		if c.Want == KindBlob {
			return packFresh(x, c)
		}
	case *jlite.Range:
		if c.Want == KindBlob {
			return packFresh(x.Collect(), c)
		}
	case nil:
		return Str(""), nil
	}
	return Str(jlite.Str(v)), nil
}

// packFresh packs a fresh jlite vector for a blob-wanting caller: under
// the sole blob argument's prototype via blob.PackLike when there is
// exactly one; otherwise provenance is ambiguous and the exact native
// packing wins (all-int64 vectors stay on the integer path, everything
// else packs flat float64, mirroring rlite's ambiguity rule). An array
// held as a column is already that native packing: it leaves as its own
// bytes.
func packFresh(a *jlite.Arr, c Call) (Value, error) {
	if proto, ok := soleBlob(c); ok {
		// An int64 prototype keeps all-integer results on the exact
		// integer path: narrowing through float64 would reject values
		// beyond 2^53 that the prototype's own element kind represents
		// exactly. Dims reattach under PackLike's rule (count match).
		if proto.Elem == blob.ElemI64 {
			if b, err := a.Pack(); err == nil && b.Elem == blob.ElemI64 {
				if n := dimsProduct(proto.Dims); proto.Dims != nil && n == b.Count() {
					b.Dims = append([]int(nil), proto.Dims...)
				}
				return BlobOf(b), nil
			}
		}
		xs, err := a.Floats()
		if err != nil {
			return Value{}, err
		}
		return BlobOf(blob.PackLike(xs, proto)), nil
	}
	b, err := a.Pack()
	if err != nil {
		return Value{}, err
	}
	return BlobOf(b), nil
}

// dimsProduct multiplies Fortran extents (1 for nil dims).
func dimsProduct(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// tclEngine embeds a dedicated Tcl interpreter per rank, distinct from
// the rank's Turbine runtime interpreter: tcl(...) fragments get the
// same isolation and retain/reinit state policy as the other embedded
// languages (and cannot reach into the runtime's procs or rules). The
// engine owns its fragment cache (Code and Expr -> *tcl.Script) rather
// than relying on the interpreter's internal one, so — like the script
// engines — Reset discards state, not parses, and PolicyReinit stays
// parse-free for repeated fragments.
type tclEngine struct {
	out    io.Writer
	in     *tcl.Interp
	parses *memo.Parses[*tcl.Script, *tcl.Script]
	argn   int
}

func newTclEngine(h Host) Engine {
	e := &tclEngine{out: h.Out, parses: memo.NewParses(tcl.CompileScript, tcl.CompileScript)}
	e.Reset()
	return e
}

func (e *tclEngine) Name() string { return "tcl" }

// Eval binds extra arguments as argv1..argvN (Tcl values are strings;
// blob payloads bind as their raw bytes, uninterpreted), evaluates Code
// then Expr through the compile-once cache, and returns the result. When
// a blob is wanted and the result bytes are an unmodified argument
// payload, the argument's dims and element kind reattach, keeping
// identity round-trips bit-exact even through a strings-only language.
func (e *tclEngine) Eval(c Call) (Value, error) {
	for i, a := range c.Args {
		if err := e.in.SetVar(argName(i), a.Render()); err != nil {
			// args 0..i-1 bound; record them so the next call cleans up.
			if i > e.argn {
				e.argn = i
			}
			return Value{}, err
		}
	}
	for i := len(c.Args); i < e.argn; i++ {
		// Already-absent variables (e.g. after Reset) are fine to skip.
		_ = e.in.UnsetVar(argName(i))
	}
	e.argn = len(c.Args)
	res, err := e.run(e.parses.Program(c.Code))
	if err != nil {
		return Value{}, err
	}
	if strings.TrimSpace(c.Expr) != "" {
		if res, err = e.run(e.parses.Expr(c.Expr)); err != nil {
			return Value{}, err
		}
	}
	if c.Want == KindBlob {
		// Reattach metadata only when unambiguous: if two arguments own
		// the same payload bytes but disagree on dims/element kind, a
		// first-match pick could hand back the wrong view — raw bytes
		// are the honest answer then.
		var match *Value
		ambiguous := false
		for i := range c.Args {
			a := c.Args[i]
			if a.Kind() != KindBlob {
				continue
			}
			b := a.AsBlob()
			if string(b.Data) != res {
				continue
			}
			if match == nil {
				m := a
				match = &m
			} else if !sameBlobMeta(match.AsBlob(), b) {
				ambiguous = true
			}
		}
		if match != nil && !ambiguous {
			return *match, nil
		}
		return BlobOf(blob.New([]byte(res))), nil
	}
	return Str(res), nil
}

// sameBlobMeta reports whether two blobs agree on element kind and dims.
func sameBlobMeta(a, b blob.Blob) bool {
	if a.Elem != b.Elem || len(a.Dims) != len(b.Dims) {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			return false
		}
	}
	return true
}

// run evaluates one compiled half of a fragment; *tcl.Script is immutable
// and interpreter-independent, so cached parses replay safely against the
// post-Reset interpreter.
func (e *tclEngine) run(s *tcl.Script, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return e.in.EvalScript(s)
}

// Reset recreates the embedded interpreter, discarding all procs and
// variables defined by previous fragments (but not the fragment cache).
func (e *tclEngine) Reset() {
	e.in = tcl.New()
	if e.out != nil {
		e.in.Out = e.out
	}
}

func (e *tclEngine) ParseCacheStats() memo.BudgetStats { return e.parses.Stats() }

// shellEngine runs commands through the simulated process table (the app
// function / sh(...) interface; §III-C notes BG/Q machines forbid it).
type shellEngine struct {
	sys *shell.System
	// owned marks an engine-created default system (no host machine was
	// provided); only owned state may be discarded on Reset.
	owned bool
}

func newShellEngine(h Host) Engine {
	e := &shellEngine{sys: h.Shell}
	if e.sys == nil {
		e.owned = true
		e.Reset()
	}
	return e
}

func (e *shellEngine) Name() string { return "sh" }

// Eval executes Code as the command word with Args as its argv; Expr is
// unused. The trailing newline of the captured stdout is stripped,
// matching command-substitution conventions.
func (e *shellEngine) Eval(c Call) (Value, error) {
	if strings.TrimSpace(c.Code) == "" {
		return Value{}, fmt.Errorf("sh: empty command")
	}
	argv := make([]string, 0, 1+len(c.Args))
	argv = append(argv, c.Code)
	for _, a := range c.Args {
		argv = append(argv, a.Render())
	}
	out, err := e.sys.Exec(argv, "")
	if err != nil {
		return Value{}, err
	}
	return Str(strings.TrimRight(out, "\n")), nil
}

// Reset discards simulated shell state: an engine-owned process table
// (and its spawn accounting) is recreated from scratch, so PolicyReinit
// cannot leak state across tasks. A host-provided System is the
// machine shared by every rank and is deliberately left intact — one
// task's reinitialisation must not wipe the cluster.
func (e *shellEngine) Reset() {
	if e.owned {
		e.sys = shell.NewSystem(shell.ModeCluster, nil)
	}
}
