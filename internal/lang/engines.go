package lang

// The standard engines: the language embeddings of the paper — §III-C
// Python and R, §III-A Tcl, the shell interface, and the Julia-like
// surface §IV sketches — each an Engine over the corresponding
// interpreter package. These init-time Register calls are the single
// wiring site per language — the Swift type checker, the compiled
// sw:leafcall dispatch, and the per-rank installation all derive from
// the registry.
//
// All of them speak the typed calling convention: extra arguments bind
// as argv1..argvN before the fragment runs (blob arguments become
// native vectors), and results return typed. Only the Tcl and shell
// engines — whose surfaces are strings by nature — render argument
// values, and even they pass blob payloads as raw bytes, never as
// formatted element text.

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
	Register(Registration{Name: "python", Sig: Signature{Fixed: 2, Variadic: true}, New: newPythonEngine})
	Register(Registration{Name: "r", Sig: Signature{Fixed: 2, Variadic: true}, New: newREngine})
	Register(Registration{Name: "tcl", Sig: Signature{Fixed: 1, Variadic: true}, New: newTclEngine})
	Register(Registration{Name: "sh", Sig: Signature{Fixed: 1, Variadic: true, Result: ResultString}, New: newShellEngine})
	Register(Registration{Name: "julia", Sig: Signature{Fixed: 2, Variadic: true}, New: newJuliaEngine})
}

// argName is the pre-bound variable name of extra argument i (0-based).
func argName(i int) string { return fmt.Sprintf("argv%d", i+1) }

// pythonEngine embeds a pylite interpreter (the paper's "Python
// interpreter as a native code library").
type pythonEngine struct {
	in    *pylite.Interp
	argn  int // argv bindings currently installed (see unbindStale)
	evals int64
}

// Stale argv bindings must not leak between tasks: under PolicyRetain a
// fragment referencing argvN beyond its own argument count would
// otherwise silently read a previous task's data instead of failing.
// Each engine unbinds argv(n+1)..argv(prev) after binding its n args.

func (e *pythonEngine) unbindStale(n int) {
	for i := n; i < e.argn; i++ {
		e.in.DelGlobal(argName(i))
	}
	e.argn = n
}

func newPythonEngine(h Host) Engine {
	in := pylite.New()
	if h.Out != nil {
		in.Out = h.Out
	}
	return &pythonEngine{in: in}
}

func (e *pythonEngine) Name() string { return "python" }

func (e *pythonEngine) Eval(c Call) (Value, error) {
	e.evals++
	// Convert every argument before binding any: a failure mid-list must
	// not leave a partial argv set behind (nothing is bound, argn is
	// untouched, and the previous task's bindings get cleaned next time).
	vals := make([]pylite.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := pyValue(a)
		if err != nil {
			return Value{}, err
		}
		vals[i] = v
	}
	for i, v := range vals {
		e.in.SetGlobal(argName(i), v)
	}
	e.unbindStale(len(c.Args))
	if strings.TrimSpace(c.Code) != "" {
		if err := e.in.Exec(c.Code); err != nil {
			return Value{}, err
		}
	}
	if strings.TrimSpace(c.Expr) == "" {
		return Str(""), nil
	}
	v, err := e.in.EvalExpr(c.Expr)
	if err != nil {
		return Value{}, err
	}
	return pyResult(v, c.Want)
}

func (e *pythonEngine) Reset()       { e.in.Reset() }
func (e *pythonEngine) Evals() int64 { return e.evals }

func (e *pythonEngine) ParseCacheStats() memo.BudgetStats { return e.in.CacheBudgetStats() }

// pyValue converts a typed argument into its Python binding: scalars
// enter as native numbers/strings, blobs as zero-copy Vec views.
func pyValue(a Value) (pylite.Value, error) {
	switch a.Kind() {
	case KindInt:
		n, err := a.AsInt()
		return n, err
	case KindFloat:
		f, err := a.AsFloat()
		return f, err
	case KindBlob:
		return pylite.NewVec(a.AsBlob())
	}
	return a.Render(), nil
}

// pyResult converts an expression result back into a typed value. A Vec
// leaves with its backing blob intact (bit-exact, dims and element kind
// preserved); a fresh numeric list packs into a blob only when the
// caller wants one, and renders as text otherwise (the historical
// string behaviour).
func pyResult(v pylite.Value, want Kind) (Value, error) {
	switch x := v.(type) {
	case int64:
		return Int(x), nil
	case float64:
		return Float(x), nil
	case string:
		return Str(x), nil
	case *pylite.Vec:
		if want == KindBlob {
			return BlobOf(x.B), nil
		}
		// Rendered like a list in string/number contexts, matching how
		// fresh lists (and R vectors) behave there.
	case bool:
		if want == KindInt || want == KindFloat {
			if x {
				return Int(1), nil
			}
			return Int(0), nil
		}
	case *pylite.List:
		if want == KindBlob {
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

// rEngine embeds an rlite interpreter (linking libR into the runtime).
type rEngine struct {
	in    *rlite.Interp
	argn  int
	evals int64
}

func (e *rEngine) unbindStale(n int) {
	for i := n; i < e.argn; i++ {
		e.in.DelGlobal(argName(i))
	}
	e.argn = n
}

func newREngine(h Host) Engine {
	in := rlite.New()
	if h.Out != nil {
		in.Out = h.Out
	}
	return &rEngine{in: in}
}

func (e *rEngine) Name() string { return "r" }

func (e *rEngine) Eval(c Call) (Value, error) {
	e.evals++
	// bound maps each blob argument's decoded vector back to its source
	// blob: a result that IS a bound vector (identity, including through
	// assignments — R names share the vector object) leaves bit-exact
	// under its own metadata, never another argument's.
	bound := map[*rlite.NumVec]blob.Blob{}
	var protos []blob.Blob
	// Convert every argument before binding any (see pythonEngine.Eval).
	vals := make([]rlite.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := rValue(a)
		if err != nil {
			return Value{}, err
		}
		vals[i] = v
	}
	for i, v := range vals {
		e.in.SetGlobal(argName(i), v)
		if a := c.Args[i]; a.Kind() == KindBlob {
			b := a.AsBlob()
			protos = append(protos, b)
			if nv, ok := v.(*rlite.NumVec); ok {
				bound[nv] = b
			}
		}
	}
	e.unbindStale(len(c.Args))
	if strings.TrimSpace(c.Code) != "" {
		if _, err := e.in.Eval(c.Code); err != nil {
			return Value{}, err
		}
	}
	if strings.TrimSpace(c.Expr) == "" {
		return Str(""), nil
	}
	v, err := e.in.Eval(c.Expr)
	if err != nil {
		return Value{}, err
	}
	return rResult(v, c.Want, bound, protos)
}

func (e *rEngine) Reset()       { e.in.Reset() }
func (e *rEngine) Evals() int64 { return e.evals }

// rValue converts a typed argument into its R binding: numbers become
// length-1 numeric vectors, blobs decode into real numeric vectors so R
// fragments apply native vectorised arithmetic to them.
func rValue(a Value) (rlite.Value, error) {
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
// pack into blobs when a blob is wanted: a vector that is (still) a
// bound argument repacks under that argument's own element kind and dims
// (identity round-trips stay bit-exact); a fresh vector adopts the sole
// blob argument's prototype when there is exactly one — with several,
// provenance is ambiguous and the safe flat float64 form wins. Scalars
// return as numbers; everything else deparses.
func rResult(v rlite.Value, want Kind, bound map[*rlite.NumVec]blob.Blob, protos []blob.Blob) (Value, error) {
	if nv, ok := v.(*rlite.NumVec); ok {
		switch {
		case want == KindBlob:
			proto := blob.Blob{Elem: blob.ElemF64}
			if src, ok := bound[nv]; ok {
				proto = src
			} else if len(protos) == 1 {
				proto = protos[0]
			}
			return BlobOf(blob.PackLike(nv.V, proto)), nil
		case (want == KindInt || want == KindFloat) && len(nv.V) == 1:
			return Float(nv.V[0]), nil
		}
	}
	return Str(rlite.Deparse(v)), nil
}

// juliaEngine embeds a jlite interpreter (the Julia-like surface the
// paper's §IV sketches, embedded the way libjulia would be).
type juliaEngine struct {
	in    *jlite.Interp
	argn  int
	evals int64
}

func (e *juliaEngine) unbindStale(n int) {
	for i := n; i < e.argn; i++ {
		e.in.DelGlobal(argName(i))
	}
	e.argn = n
}

func newJuliaEngine(h Host) Engine {
	in := jlite.New()
	if h.Out != nil {
		in.Out = h.Out
	}
	return &juliaEngine{in: in}
}

func (e *juliaEngine) Name() string { return "julia" }

func (e *juliaEngine) Eval(c Call) (Value, error) {
	e.evals++
	// Convert every argument before binding any (see pythonEngine.Eval):
	// a failure mid-list must not leave a partial argv set behind.
	vals := make([]jlite.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := jlValue(a)
		if err != nil {
			return Value{}, err
		}
		vals[i] = v
	}
	// protos tracks blob arguments for result repacking: a fresh vector
	// result adopts the sole blob argument's element view via
	// blob.PackLike when unambiguous (identity results are Vec views and
	// leave bit-exact under their own backing blob regardless).
	var protos []blob.Blob
	for i, v := range vals {
		e.in.SetGlobal(argName(i), v)
		if a := c.Args[i]; a.Kind() == KindBlob {
			protos = append(protos, a.AsBlob())
		}
	}
	e.unbindStale(len(c.Args))
	if strings.TrimSpace(c.Code) != "" {
		if err := e.in.Exec(c.Code); err != nil {
			return Value{}, err
		}
	}
	if strings.TrimSpace(c.Expr) == "" {
		return Str(""), nil
	}
	v, err := e.in.EvalExpr(c.Expr)
	if err != nil {
		return Value{}, err
	}
	return jlResult(v, c.Want, protos)
}

func (e *juliaEngine) Reset()       { e.in.Reset() }
func (e *juliaEngine) Evals() int64 { return e.evals }

func (e *juliaEngine) ParseCacheStats() memo.BudgetStats { return e.in.CacheBudgetStats() }

// jlValue converts a typed argument into its jlite binding: scalars
// enter as native numbers/strings, blobs as zero-copy 1-based Vec views.
func jlValue(a Value) (jlite.Value, error) {
	switch a.Kind() {
	case KindInt:
		n, err := a.AsInt()
		return n, err
	case KindFloat:
		f, err := a.AsFloat()
		return f, err
	case KindBlob:
		return jlite.NewVec(a.AsBlob())
	}
	return a.Render(), nil
}

// jlResult converts an expression result back into a typed value. A Vec
// leaves with its backing blob intact (bit-exact, dims and element kind
// preserved). A fresh vector packs into a blob only when the caller
// wants one: under the sole blob argument's prototype via blob.PackLike
// when there is exactly one — with several, provenance is ambiguous and
// the exact native packing wins (all-int64 vectors stay on the integer
// path, everything else packs flat float64, mirroring rlite's ambiguity
// rule). Ranges materialise like fresh vectors.
func jlResult(v jlite.Value, want Kind, protos []blob.Blob) (Value, error) {
	switch x := v.(type) {
	case int64:
		return Int(x), nil
	case float64:
		return Float(x), nil
	case string:
		return Str(x), nil
	case bool:
		if want == KindInt || want == KindFloat {
			if x {
				return Int(1), nil
			}
			return Int(0), nil
		}
	case *jlite.Vec:
		if want == KindBlob {
			return BlobOf(x.B), nil
		}
		// Rendered like a vector literal in string contexts, matching
		// fresh arrays (and the other engines' list behaviour there).
	case *jlite.Arr:
		if want == KindBlob {
			return packFresh(x.Elems, protos)
		}
	case *jlite.Range:
		if want == KindBlob {
			elems := make([]jlite.Value, x.Len())
			for i := range elems {
				elems[i] = x.Lo + int64(i)
			}
			return packFresh(elems, protos)
		}
	case nil:
		return Str(""), nil
	}
	return Str(jlite.Str(v)), nil
}

// packFresh packs a fresh jlite vector for a blob-wanting caller.
func packFresh(elems []jlite.Value, protos []blob.Blob) (Value, error) {
	if len(protos) == 1 {
		proto := protos[0]
		// An int64 prototype keeps all-integer results on the exact
		// integer path: narrowing through float64 would reject values
		// beyond 2^53 that the prototype's own element kind represents
		// exactly. Dims reattach under PackLike's rule (count match).
		if proto.Elem == blob.ElemI64 {
			if b, err := jlite.PackValues(elems); err == nil && b.Elem == blob.ElemI64 {
				if n := dimsProduct(proto.Dims); proto.Dims != nil && n == b.Count() {
					b.Dims = append([]int(nil), proto.Dims...)
				}
				return BlobOf(b), nil
			}
		}
		xs, err := jlite.FloatsExact(elems)
		if err != nil {
			return Value{}, err
		}
		return BlobOf(blob.PackLike(xs, proto)), nil
	}
	b, err := jlite.PackValues(elems)
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
// engine owns its fragment cache (source -> *tcl.Script) rather than
// relying on the interpreter's internal one, so — like pylite and
// rlite — Reset discards state, not parses, and PolicyReinit stays
// parse-free for repeated fragments.
type tclEngine struct {
	out   io.Writer
	in    *tcl.Interp
	progs *memo.Budget[*tcl.Script]
	argn  int
	evals int64
}

func (e *tclEngine) unbindStale(n int) {
	for i := n; i < e.argn; i++ {
		// Already-absent variables (e.g. after Reset) are fine to skip.
		_ = e.in.UnsetVar(argName(i))
	}
	e.argn = n
}

// tclProgCacheSize bounds the engine's fragment cache's entry count.
const tclProgCacheSize = 256

func newTclEngine(h Host) Engine {
	e := &tclEngine{out: h.Out, progs: memo.NewBudget[*tcl.Script](tclProgCacheSize, memo.UnitCost[*tcl.Script])}
	e.Reset()
	return e
}

func (e *tclEngine) Name() string { return "tcl" }

// Eval binds extra arguments as argv1..argvN (Tcl values are strings;
// blob payloads bind as their raw bytes, uninterpreted), evaluates Code
// through the compile-once cache, and returns the result. When a blob is
// wanted and the result bytes are an unmodified argument payload, the
// argument's dims and element kind reattach, keeping identity
// round-trips bit-exact even through a strings-only language.
func (e *tclEngine) Eval(c Call) (Value, error) {
	e.evals++
	for i, a := range c.Args {
		if err := e.in.SetVar(argName(i), a.Render()); err != nil {
			// args 0..i-1 bound; record them so the next call cleans up.
			if i > e.argn {
				e.argn = i
			}
			return Value{}, err
		}
	}
	e.unbindStale(len(c.Args))
	res, err := e.evalCached(c.Code)
	if err != nil {
		return Value{}, err
	}
	if strings.TrimSpace(c.Expr) != "" {
		if res, err = e.evalCached(c.Expr); err != nil {
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

// evalCached evaluates a fragment through the engine's compile-once
// cache; *tcl.Script is immutable and interpreter-independent, so cached
// parses replay safely against the post-Reset interpreter.
func (e *tclEngine) evalCached(src string) (string, error) {
	s, err := e.progs.GetOrCompute(src, func() (*tcl.Script, error) {
		return tcl.CompileScript(src)
	})
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

func (e *tclEngine) Evals() int64 { return e.evals }

// shellEngine runs commands through the simulated process table (the app
// function / sh(...) interface; §III-C notes BG/Q machines forbid it).
type shellEngine struct {
	sys *shell.System
	// owned marks an engine-created default system (no host machine was
	// provided); only owned state may be discarded on Reset.
	owned bool
	evals int64
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
	e.evals++
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

func (e *shellEngine) Evals() int64 { return e.evals }
