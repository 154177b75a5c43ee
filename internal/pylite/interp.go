package pylite

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/memo"
	"repro/internal/vecview"
)

// Value is a pylite runtime value: nil (None), bool, int64, float64,
// string, *List, *Dict, *Func, or Builtin.
type Value any

// List is a mutable Python list.
type List struct{ Items []Value }

// Dict is a Python dict with insertion-ordered keys. Keys must be
// hashable values (bool, int64, float64, string); equal numbers (True,
// 1 and 1.0) are one key, which keeps the form it was first set with.
type Dict struct {
	m     map[Value]Value // by dictKey
	order []Value
}

// NewDict creates an empty dict.
func NewDict() *Dict { return &Dict{m: map[Value]Value{}} }

// Get looks up a key.
func (d *Dict) Get(k Value) (Value, bool) {
	v, ok := d.m[dictKey(k)]
	return v, ok
}

// Set assigns a key.
func (d *Dict) Set(k, v Value) {
	dk := dictKey(k)
	if _, exists := d.m[dk]; !exists {
		d.order = append(d.order, k)
	}
	d.m[dk] = v
}

// Del removes a key.
func (d *Dict) Del(k Value) {
	dk := dictKey(k)
	if _, exists := d.m[dk]; !exists {
		return
	}
	delete(d.m, dk)
	for i, o := range d.order {
		if dictKey(o) == dk {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// Keys returns keys in insertion order.
func (d *Dict) Keys() []Value { return append([]Value(nil), d.order...) }

// Len returns the entry count.
func (d *Dict) Len() int { return len(d.m) }

// Func is a user-defined function (def or lambda) and the frame it
// closes over (nil at module scope).
type Func struct {
	code    *fnCode
	closure *frame
}

// Builtin is a Go-implemented function.
type Builtin func(in *Interp, args []Value) (Value, error)

// frame is one call's slots, sized by resolveFn; up is the frame the
// function closes over. A call allocates its frame and nothing else:
// a small one keeps its slots inline.
type frame struct {
	up    *frame
	slots []val
	small [4]val
}

func newFrame(fn *Func) *frame {
	fr := &frame{up: fn.closure}
	if n := fn.code.nslots; n <= len(fr.small) {
		fr.slots = fr.small[:n]
	} else {
		fr.slots = make([]val, n)
	}
	return fr
}

// Interp is one embedded Python interpreter instance with persistent
// global state, mirroring an initialised CPython. Out receives print()
// output. Each worker rank owns its own instance; the retain/reinit state
// policy of the paper is implemented by Reset.
type Interp struct {
	// gslots is the global namespace, one slot per name bound since the
	// last Reset; gindex numbers the names. gen changes whenever a name
	// is numbered or Reset renumbers them all, so a cached resolution
	// (eName.gslot) is good while its ggen equals gen.
	gslots []val
	gindex map[string]int
	gen    uint64
	ret    val // the value a return statement is unwinding with
	Out    io.Writer
	depth  int
	// InitCost simulates the fixed cost of interpreter initialisation
	// (loading an interpreter library is not free on a real system);
	// benchmarks use it to model retain-vs-reinit trade-offs.
	InitCost func()
	// parses is the compile-once fragment cache: ensemble workloads
	// evaluate the same python() fragment once per task, so the steady
	// state is parse-free, and it survives Reset (see memo.Parses).
	parses *memo.Parses[[]pstmt, *Expr]
}

// New creates an interpreter with builtins installed.
func New() *Interp {
	in := &Interp{Out: os.Stdout, gindex: map[string]int{}, parses: memo.NewParses(parseModule, parseExpr)}
	in.reset()
	return in
}

func (in *Interp) reset() {
	clear(in.gslots)
	in.gslots = in.gslots[:0]
	clear(in.gindex)
	in.gen++
	if in.InitCost != nil {
		in.InitCost()
	}
}

// Reset finalises and reinitialises the interpreter, discarding all
// global state (the paper's "reinitialize" policy, §III-C).
func (in *Interp) Reset() { in.reset() }

// SetGlobal binds a value (including a Builtin) into the interpreter's
// global namespace; hosts use it to expose Go functions to Python code,
// as a C embedding would via the CPython API.
func (in *Interp) SetGlobal(name string, v Value) {
	i := in.global(name) // may grow gslots: index it after
	in.gslots[i] = unbox(v)
}

// DelGlobal removes a global binding (a no-op if absent); hosts use it
// to unbind stale pre-bound arguments between fragments.
func (in *Interp) DelGlobal(name string) {
	if i, ok := in.gindex[name]; ok {
		in.gslots[i] = val{}
	}
}

// global returns name's global slot, numbering a new one if need be.
func (in *Interp) global(name string) int {
	i, ok := in.gindex[name]
	if !ok {
		i = len(in.gslots)
		in.gslots = append(in.gslots, val{})
		in.gindex[name] = i
		in.gen++
	}
	return i
}

// gslot returns x's global slot, or -1 when x has none and bind is
// false; the answer is cached in x until gen moves.
func (in *Interp) gslot(x *eName, bind bool) int {
	if x.ggen != in.gen || (x.gslot < 0 && bind) {
		x.gslot = -1
		if i, ok := in.gindex[x.name]; ok {
			x.gslot = i
		} else if bind {
			x.gslot = in.global(x.name)
		}
		x.ggen = in.gen
	}
	return x.gslot
}

// slot returns the slot a read of x finds set: x's own frame's, then
// each enclosing frame's that binds it, then its global one; nil when
// none is. The pointer is good until the next global is numbered.
func (in *Interp) slot(x *eName, f *frame) *val {
	if x.local >= 0 {
		if s := &f.slots[x.local]; s.k != kUnset {
			return s
		}
	}
	for _, u := range x.outer {
		g := f
		for d := u.depth; d > 0; d-- {
			g = g.up
		}
		if s := &g.slots[u.slot]; s.k != kUnset {
			return s
		}
	}
	if i := in.gslot(x, false); i >= 0 {
		if s := &in.gslots[i]; s.k != kUnset {
			return s
		}
	}
	return nil
}

// store binds x, in its frame slot or else its global one.
func (in *Interp) store(x *eName, f *frame, v val) {
	if x.local >= 0 {
		f.slots[x.local] = v
		return
	}
	i := in.gslot(x, true) // may grow gslots: index it after
	in.gslots[i] = v
}

// control-flow sentinels
type breakErr struct{}
type continueErr struct{}
type returnErr struct{} // the value is in Interp.ret

func (breakErr) Error() string    { return "pylite: break outside loop" }
func (continueErr) Error() string { return "pylite: continue outside loop" }
func (returnErr) Error() string   { return "pylite: return outside function" }

// Exec runs a block of statements against the persistent globals.
// Parsing is memoized: each distinct source string is parsed once per
// interpreter and the immutable statement list is replayed thereafter.
func (in *Interp) Exec(code string) error {
	stmts, err := in.parses.Program(code)
	if err != nil {
		return err
	}
	return in.execBlock(stmts, nil)
}

// EvalExpr evaluates a single expression against the globals, memoizing
// the parsed expression by source text.
func (in *Interp) EvalExpr(expr string) (Value, error) {
	x, _, err := in.ParseExpr(expr)
	if err != nil {
		return nil, err
	}
	return in.EvalParsed(x)
}

// ParseExpr parses a single expression through the cache, and reports
// whether evaluating it now keeps nothing it reads: it stores nothing,
// and no global displaces a builtin it calls (under PolicyRetain a
// fragment may have defined its own sum).
func (in *Interp) ParseExpr(expr string) (x *Expr, keepsNothing bool, err error) {
	if x, err = in.parses.Expr(expr); err != nil {
		return nil, false, err
	}
	keeps := x.keeps
	for _, n := range x.calls {
		keeps = keeps || in.slot(n, nil) != nil
	}
	return x, !keeps, nil
}

// EvalParsed evaluates a parsed expression against the globals.
func (in *Interp) EvalParsed(x *Expr) (Value, error) { return in.eval(x.x, nil) }

// ParseStats reports the fragment cache's counters.
func (in *Interp) ParseStats() memo.BudgetStats { return in.parses.Stats() }

// EvalFragment is the Swift/T python(code, expr) entry point: execute
// code, then evaluate expr and return its str() form.
func (in *Interp) EvalFragment(code, expr string) (string, error) {
	if strings.TrimSpace(code) != "" {
		if err := in.Exec(code); err != nil {
			return "", err
		}
	}
	if strings.TrimSpace(expr) == "" {
		return "", nil
	}
	v, err := in.EvalExpr(expr)
	if err != nil {
		return "", err
	}
	return Str(v), nil
}

func (in *Interp) execBlock(stmts []pstmt, f *frame) error {
	for _, s := range stmts {
		if err := in.execStmt(s, f); err != nil {
			return err
		}
	}
	return nil
}

// loopBody runs one iteration; stop reports a break, or an error.
func (in *Interp) loopBody(body []pstmt, f *frame) (stop bool, err error) {
	err = in.execBlock(body, f)
	switch err.(type) {
	case nil, continueErr:
		return false, nil
	case breakErr:
		return true, nil
	}
	return true, err
}

func (in *Interp) execStmt(s pstmt, f *frame) error {
	switch st := s.(type) {
	case *sAssign:
		return in.assign(st, f)
	case *sExpr:
		_, err := in.ev(st.x, f)
		return err
	case *sIf:
		c, err := in.ev(st.cond, f)
		if err != nil {
			return err
		}
		if c.truthy() {
			return in.execBlock(st.then, f)
		}
		return in.execBlock(st.els, f)
	case *sWhile:
		for {
			c, err := in.ev(st.cond, f)
			if err != nil {
				return err
			}
			if !c.truthy() {
				return nil
			}
			if stop, err := in.loopBody(st.body, f); stop {
				return err
			}
		}
	case *sFor:
		if st.rng != nil && in.slot(st.rng.fn.(*eName), f) == nil {
			return in.forRange(st, f)
		}
		seq, err := in.eval(st.seq, f)
		if err != nil {
			return err
		}
		items, err := iterate(seq)
		if err != nil {
			return err
		}
		for _, item := range items {
			if len(st.vars) == 1 {
				in.store(st.vars[0], f, unbox(item))
			} else {
				parts, ok := item.(*List)
				if !ok || len(parts.Items) != len(st.vars) {
					return fmt.Errorf("pylite: cannot unpack %s into %d variables", Repr(item), len(st.vars))
				}
				for i, x := range st.vars {
					in.store(x, f, unbox(parts.Items[i]))
				}
			}
			if stop, err := in.loopBody(st.body, f); stop {
				return err
			}
		}
		return nil
	case *sDef:
		in.store(st.target, f, val{k: kBoxed, x: &Func{code: st.fn, closure: f}})
		return nil
	case *sReturn:
		v := none
		if st.x != nil {
			var err error
			if v, err = in.ev(st.x, f); err != nil {
				return err
			}
		}
		in.ret = v
		return returnErr{}
	case *sBreak:
		return breakErr{}
	case *sContinue:
		return continueErr{}
	case *sPass, *sGlobal: // a global declaration acts through resolveFn
		return nil
	case *sImport:
		mod, err := in.importModule(st.target.name)
		if err != nil {
			return err
		}
		in.store(st.target, f, val{k: kBoxed, x: mod})
		return nil
	case *sDel:
		switch t := st.target.(type) {
		case *eName:
			if t.local >= 0 {
				f.slots[t.local] = val{}
			} else if i := in.gslot(t, false); i >= 0 {
				in.gslots[i] = val{}
			}
			return nil
		case *eSub:
			obj, err := in.eval(t.obj, f)
			if err != nil {
				return err
			}
			idx, err := in.eval(t.idx, f)
			if err != nil {
				return err
			}
			if d, ok := obj.(*Dict); ok {
				d.Del(idx)
				return nil
			}
			return fmt.Errorf("pylite: del needs a dict subscript")
		}
		return fmt.Errorf("pylite: cannot del this expression")
	}
	return fmt.Errorf("pylite: unknown statement %T", s)
}

// forRange runs "for v in range(...)" while range is still the builtin:
// its arguments are evaluated once and v steps as an unboxed int, with
// no list built.
func (in *Interp) forRange(st *sFor, f *frame) error {
	var buf [3]val
	args := buf[:0]
	for _, a := range st.rng.args {
		v, err := in.ev(a, f)
		if err != nil {
			return err
		}
		args = append(args, v)
	}
	i, step, n, err := rangeOf(args)
	if err != nil {
		return err
	}
	for ; n > 0; n-- {
		in.store(st.vars[0], f, intv(i))
		if stop, err := in.loopBody(st.body, f); stop {
			return err
		}
		i += step
	}
	return nil
}

// rangeOf reads range()'s arguments as its first item, step and length.
func rangeOf(args []val) (lo, step int64, n uint64, err error) {
	var hi int64
	step = 1
	switch len(args) {
	case 1:
		if args[0].k != kInt {
			return 0, 0, 0, fmt.Errorf("pylite: range() needs ints")
		}
		hi = args[0].int()
	case 2, 3:
		if args[0].k != kInt || args[1].k != kInt {
			return 0, 0, 0, fmt.Errorf("pylite: range() needs ints")
		}
		lo, hi = args[0].int(), args[1].int()
		if len(args) == 3 {
			if args[2].k != kInt || args[2].n == 0 {
				return 0, 0, 0, fmt.Errorf("pylite: range() step must be a non-zero int")
			}
			step = args[2].int()
		}
	default:
		return 0, 0, 0, fmt.Errorf("pylite: range() takes 1-3 arguments")
	}
	switch {
	case step > 0 && lo < hi:
		n = (uint64(hi)-uint64(lo)-1)/uint64(step) + 1
	case step < 0 && lo > hi:
		n = (uint64(lo)-uint64(hi)-1)/(-uint64(step)) + 1
	}
	return lo, step, n, nil
}

func (in *Interp) assign(st *sAssign, f *frame) error {
	v, err := in.ev(st.value, f)
	if err != nil {
		return err
	}
	if st.aug {
		// Augmented: read-modify-write.
		old, err := in.ev(st.target, f)
		if err != nil {
			return err
		}
		v, err = binv(st.op, old, v)
		if err != nil {
			return err
		}
	}
	switch t := st.target.(type) {
	case *eName:
		in.store(t, f, v)
		return nil
	case *eSub:
		obj, err := in.eval(t.obj, f)
		if err != nil {
			return err
		}
		idx, err := in.ev(t.idx, f)
		if err != nil {
			return err
		}
		switch o := obj.(type) {
		case *List:
			i, err := index(idx, len(o.Items))
			if err != nil {
				return err
			}
			o.Items[i] = v.box()
			return nil
		case *Vec:
			i, err := index(idx, o.Len())
			if err != nil {
				return err
			}
			return o.SetAt(i, v.box())
		case *Dict:
			k := idx.box()
			if !hashable(k) {
				return fmt.Errorf("pylite: unhashable key %s", Repr(k))
			}
			o.Set(k, v.box())
			return nil
		}
		return fmt.Errorf("pylite: cannot subscript-assign %s", typeName(obj))
	}
	return fmt.Errorf("pylite: bad assignment target")
}

func hashable(v Value) bool {
	switch v.(type) {
	case nil, bool, int64, float64, string:
		return true
	}
	return false
}

func listIndex(idx Value, n int) (int, error) { return index(unbox(idx), n) }

func index(idx val, n int) (int, error) {
	if idx.k != kInt {
		return 0, fmt.Errorf("pylite: list index must be int, got %s", typeName(idx.box()))
	}
	i := idx.int()
	j := int(i)
	if j < 0 {
		j += n
	}
	if j < 0 || j >= n {
		return 0, fmt.Errorf("pylite: list index %d out of range (len %d)", i, n)
	}
	return j, nil
}

func iterate(v Value) ([]Value, error) {
	switch s := v.(type) {
	case *List:
		return append([]Value(nil), s.Items...), nil
	case *Vec:
		return vecview.Items[Value](s), nil
	case string:
		out := make([]Value, 0, len(s))
		for _, r := range s {
			out = append(out, string(r))
		}
		return out, nil
	case *Dict:
		return s.Keys(), nil
	}
	return nil, fmt.Errorf("pylite: %s is not iterable", typeName(v))
}

func truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	case *List:
		return len(x.Items) > 0
	case *Vec:
		return x.Len() > 0
	case *Dict:
		return x.Len() > 0
	}
	return true
}

func typeName(v Value) string {
	switch v.(type) {
	case nil:
		return "NoneType"
	case bool:
		return "bool"
	case int64:
		return "int"
	case float64:
		return "float"
	case string:
		return "str"
	case *List:
		return "list"
	case *Vec:
		return "vec"
	case *Dict:
		return "dict"
	case *Func:
		return "function"
	case Builtin:
		return "builtin_function_or_method"
	case *Dict2Mod:
		return "module"
	}
	return fmt.Sprintf("%T", v)
}

// Dict2Mod is a read-only module namespace (math, statistics).
type Dict2Mod struct {
	name string
	vars map[string]Value
}

func (in *Interp) importModule(name string) (Value, error) {
	switch name {
	case "math":
		return &Dict2Mod{name: "math", vars: map[string]Value{
			"pi":    math.Pi,
			"e":     math.E,
			"sqrt":  Builtin(mathUnary("sqrt", math.Sqrt)),
			"sin":   Builtin(mathUnary("sin", math.Sin)),
			"cos":   Builtin(mathUnary("cos", math.Cos)),
			"tan":   Builtin(mathUnary("tan", math.Tan)),
			"exp":   Builtin(mathUnary("exp", math.Exp)),
			"log":   Builtin(mathUnary("log", math.Log)),
			"floor": Builtin(mathUnary("floor", math.Floor)),
			"ceil":  Builtin(mathUnary("ceil", math.Ceil)),
			"fabs":  Builtin(mathUnary("fabs", math.Abs)),
			"pow": Builtin(func(in *Interp, args []Value) (Value, error) {
				if len(args) != 2 {
					return nil, fmt.Errorf("pylite: math.pow takes 2 arguments")
				}
				a, err := toFloat(args[0])
				if err != nil {
					return nil, err
				}
				b, err := toFloat(args[1])
				if err != nil {
					return nil, err
				}
				return math.Pow(a, b), nil
			}),
		}}, nil
	case "statistics":
		return &Dict2Mod{name: "statistics", vars: map[string]Value{
			"mean":   Builtin(statMean),
			"stdev":  Builtin(statStdev),
			"median": Builtin(statMedian),
		}}, nil
	}
	return nil, fmt.Errorf("pylite: no module named %q (available: math, statistics)", name)
}

func mathUnary(name string, f func(float64) float64) func(*Interp, []Value) (Value, error) {
	return func(in *Interp, args []Value) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("pylite: math.%s takes 1 argument", name)
		}
		x, err := toFloat(args[0])
		if err != nil {
			return nil, err
		}
		return f(x), nil
	}
}

func toFloat(v Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("pylite: expected a number, got %s", typeName(v))
}

func numsOf(args []Value) ([]float64, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("pylite: expected one list argument")
	}
	lst, ok := args[0].(*List)
	if !ok {
		return nil, fmt.Errorf("pylite: expected a list, got %s", typeName(args[0]))
	}
	out := make([]float64, len(lst.Items))
	for i, it := range lst.Items {
		f, err := toFloat(it)
		if err != nil {
			return nil, err
		}
		out[i] = f
	}
	return out, nil
}

func statMean(in *Interp, args []Value) (Value, error) {
	xs, err := numsOf(args)
	if err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("pylite: mean of empty data")
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

func statStdev(in *Interp, args []Value) (Value, error) {
	xs, err := numsOf(args)
	if err != nil {
		return nil, err
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("pylite: stdev needs at least two points")
	}
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)-1)), nil
}

func statMedian(in *Interp, args []Value) (Value, error) {
	xs, err := numsOf(args)
	if err != nil {
		return nil, err
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("pylite: median of empty data")
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2], nil
	}
	return (xs[n/2-1] + xs[n/2]) / 2, nil
}

// ---- evaluation ----

// eval evaluates x to a Value. A name's number is boxed in its slot, so
// it escapes from there at most once.
func (in *Interp) eval(x pexpr, f *frame) (Value, error) {
	if n, ok := x.(*eName); ok {
		if s := in.slot(n, f); s != nil {
			return s.box(), nil
		}
	}
	v, err := in.ev(x, f)
	return v.box(), err
}

// ev evaluates x, leaving a number unboxed.
func (in *Interp) ev(x pexpr, f *frame) (val, error) {
	switch ex := x.(type) {
	case *eName:
		if s := in.slot(ex, f); s != nil {
			return *s, nil
		}
		if ex.builtin != nil {
			return val{k: kBoxed, x: ex.builtin}, nil
		}
		return val{}, fmt.Errorf("pylite: name %q is not defined", ex.name)
	case *eConst:
		return ex.v, nil
	case *eBin:
		l, err := in.ev(ex.l, f)
		if err != nil {
			return val{}, err
		}
		switch ex.op {
		case opAnd:
			if !l.truthy() {
				return l, nil
			}
			return in.ev(ex.r, f)
		case opOr:
			if l.truthy() {
				return l, nil
			}
			return in.ev(ex.r, f)
		}
		r, err := in.ev(ex.r, f)
		if err != nil {
			return val{}, err
		}
		return binv(ex.op, l, r)
	case *eUn:
		v, err := in.ev(ex.x, f)
		if err != nil {
			return val{}, err
		}
		if ex.op == opNot {
			return boolv(!v.truthy()), nil
		}
		switch v.k {
		case kInt:
			return intv(-v.int()), nil
		case kFloat:
			return floatv(-v.float()), nil
		}
		return val{}, fmt.Errorf("pylite: bad operand for unary -: %s", typeName(v.box()))
	case *eList:
		lst := &List{}
		for _, el := range ex.elems {
			v, err := in.eval(el, f)
			if err != nil {
				return val{}, err
			}
			lst.Items = append(lst.Items, v)
		}
		return val{k: kBoxed, x: lst}, nil
	case *eDict:
		d := NewDict()
		for i := range ex.keys {
			k, err := in.eval(ex.keys[i], f)
			if err != nil {
				return val{}, err
			}
			if !hashable(k) {
				return val{}, fmt.Errorf("pylite: unhashable key %s", Repr(k))
			}
			v, err := in.eval(ex.vals[i], f)
			if err != nil {
				return val{}, err
			}
			d.Set(k, v)
		}
		return val{k: kBoxed, x: d}, nil
	case *eSub:
		obj, err := in.eval(ex.obj, f)
		if err != nil {
			return val{}, err
		}
		idx, err := in.ev(ex.idx, f)
		if err != nil {
			return val{}, err
		}
		switch o := obj.(type) {
		case *List:
			i, err := index(idx, len(o.Items))
			if err != nil {
				return val{}, err
			}
			return unbox(o.Items[i]), nil
		case *Vec:
			i, err := index(idx, o.Len())
			if err != nil {
				return val{}, err
			}
			return unbox(o.At(i)), nil
		case string:
			i, err := index(idx, len(o))
			if err != nil {
				return val{}, err
			}
			return val{k: kBoxed, x: string(o[i])}, nil
		case *Dict:
			k := idx.box()
			v, ok := o.Get(k)
			if !ok {
				return val{}, fmt.Errorf("pylite: KeyError: %s", Repr(k))
			}
			return unbox(v), nil
		}
		return val{}, fmt.Errorf("pylite: %s is not subscriptable", typeName(obj))
	case *eSlice:
		obj, err := in.eval(ex.obj, f)
		if err != nil {
			return val{}, err
		}
		var length int
		switch o := obj.(type) {
		case *List:
			length = len(o.Items)
		case string:
			length = len(o)
		default:
			return val{}, fmt.Errorf("pylite: %s is not sliceable", typeName(obj))
		}
		lo, hi := 0, length
		if ex.lo != nil {
			v, err := in.ev(ex.lo, f)
			if err != nil {
				return val{}, err
			}
			lo = clampIndex(v, length)
		}
		if ex.hi != nil {
			v, err := in.ev(ex.hi, f)
			if err != nil {
				return val{}, err
			}
			hi = clampIndex(v, length)
		}
		if lo > hi {
			lo = hi
		}
		if o, ok := obj.(*List); ok {
			return val{k: kBoxed, x: &List{Items: append([]Value(nil), o.Items[lo:hi]...)}}, nil
		}
		return val{k: kBoxed, x: obj.(string)[lo:hi]}, nil
	case *eAttr:
		obj, err := in.eval(ex.obj, f)
		if err != nil {
			return val{}, err
		}
		if m, ok := obj.(*Dict2Mod); ok {
			if v, ok := m.vars[ex.name]; ok {
				return unbox(v), nil
			}
			return val{}, fmt.Errorf("pylite: module %q has no attribute %q", m.name, ex.name)
		}
		v, err := boundMethod(obj, ex.name)
		return val{k: kBoxed, x: v}, err
	case *eLambda:
		return val{k: kBoxed, x: &Func{code: ex.fn, closure: f}}, nil
	case *eCall:
		fv, err := in.ev(ex.fn, f)
		if err != nil {
			return val{}, err
		}
		if fn, ok := fv.x.(*Func); ok && len(ex.args) == len(fn.code.params) {
			// A user function's arguments go straight into its frame,
			// numbers unboxed.
			fr := newFrame(fn)
			for i, a := range ex.args {
				if fr.slots[i], err = in.ev(a, f); err != nil {
					return val{}, err
				}
			}
			return in.run(fn, fr)
		}
		var args []Value
		for _, a := range ex.args {
			v, err := in.eval(a, f)
			if err != nil {
				return val{}, err
			}
			args = append(args, v)
		}
		v, err := in.call(fv.box(), args)
		return unbox(v), err
	}
	return val{}, fmt.Errorf("pylite: unknown expression %T", x)
}

func clampIndex(v val, n int) int {
	if v.k != kInt {
		return 0
	}
	j := int(v.int())
	if j < 0 {
		j += n
	}
	if j < 0 {
		j = 0
	}
	if j > n {
		j = n
	}
	return j
}

// call calls fn with boxed arguments (the route builtins such as map
// take).
func (in *Interp) call(fn Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case Builtin:
		return f(in, args)
	case *Func:
		if len(args) != len(f.code.params) {
			return nil, fmt.Errorf("pylite: %s() takes %d arguments, got %d", f.code.name, len(f.code.params), len(args))
		}
		fr := newFrame(f)
		for i, a := range args {
			fr.slots[i] = unbox(a)
		}
		v, err := in.run(f, fr)
		return v.box(), err
	}
	return nil, fmt.Errorf("pylite: %s is not callable", typeName(fn))
}

// run executes fn's body in its bound frame.
func (in *Interp) run(fn *Func, fr *frame) (val, error) {
	in.depth++
	defer func() { in.depth-- }()
	if in.depth > 500 {
		return val{}, fmt.Errorf("pylite: maximum recursion depth exceeded")
	}
	if fn.code.expr != nil { // lambda
		return in.ev(fn.code.expr, fr)
	}
	err := in.execBlock(fn.code.body, fr)
	if _, ok := err.(returnErr); ok {
		v := in.ret
		in.ret = val{}
		return v, nil
	}
	if err != nil {
		return val{}, err
	}
	return none, nil
}

// pyFormat implements the % operator on strings for common verbs.
func pyFormat(format string, arg Value) (string, error) {
	args := []Value{arg}
	if t, ok := arg.(*List); ok {
		args = t.Items
	}
	var b strings.Builder
	ai := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			b.WriteByte(format[i])
			continue
		}
		i++
		if i >= len(format) {
			return "", fmt.Errorf("pylite: incomplete format")
		}
		if format[i] == '%' {
			b.WriteByte('%')
			continue
		}
		start := i
		for i < len(format) && strings.ContainsRune("-+ 0123456789.", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			return "", fmt.Errorf("pylite: incomplete format")
		}
		spec := format[start:i]
		verb := format[i]
		if ai >= len(args) {
			return "", fmt.Errorf("pylite: not enough arguments for format string")
		}
		v := args[ai]
		ai++
		switch verb {
		case 'd', 'i':
			n, ok := v.(int64)
			if !ok {
				f, err := toFloat(v)
				if err != nil {
					return "", err
				}
				n = int64(f)
			}
			fmt.Fprintf(&b, "%"+spec+"d", n)
		case 'f', 'g', 'e':
			f, err := toFloat(v)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%"+spec+string(verb), f)
		case 's':
			fmt.Fprintf(&b, "%"+spec+"s", Str(v))
		default:
			return "", fmt.Errorf("pylite: unsupported format %%%c", verb)
		}
	}
	return b.String(), nil
}

// Str renders a value as Python str().
func Str(v Value) string {
	switch x := v.(type) {
	case nil:
		return "None"
	case bool:
		if x {
			return "True"
		}
		return "False"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eEnN") {
			s += ".0"
		}
		return s
	case string:
		return x
	case *List, *Dict, *Vec:
		return Repr(v)
	case *Func:
		return "<function " + x.code.name + ">"
	case Builtin:
		return "<built-in function>"
	case *Dict2Mod:
		return "<module '" + x.name + "'>"
	}
	return fmt.Sprintf("%v", v)
}

// Repr renders a value as Python repr().
func Repr(v Value) string {
	switch x := v.(type) {
	case string:
		return "'" + strings.ReplaceAll(x, "'", "\\'") + "'"
	case *List:
		parts := make([]string, len(x.Items))
		for i, it := range x.Items {
			parts[i] = Repr(it)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Vec:
		parts := make([]string, x.Len())
		for i := range parts {
			parts[i] = Repr(x.At(i))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Dict:
		var parts []string
		for _, k := range x.Keys() {
			val, _ := x.Get(k)
			parts = append(parts, Repr(k)+": "+Repr(val))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return Str(v)
	}
}
