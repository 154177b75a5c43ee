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
// hashable values (bool, int64, float64, string).
type Dict struct {
	m     map[Value]Value
	order []Value
}

// NewDict creates an empty dict.
func NewDict() *Dict { return &Dict{m: map[Value]Value{}} }

// Get looks up a key.
func (d *Dict) Get(k Value) (Value, bool) {
	v, ok := d.m[k]
	return v, ok
}

// Set assigns a key.
func (d *Dict) Set(k, v Value) {
	if _, exists := d.m[k]; !exists {
		d.order = append(d.order, k)
	}
	d.m[k] = v
}

// Del removes a key.
func (d *Dict) Del(k Value) {
	if _, exists := d.m[k]; !exists {
		return
	}
	delete(d.m, k)
	for i, o := range d.order {
		if o == k {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
}

// Keys returns keys in insertion order.
func (d *Dict) Keys() []Value { return append([]Value(nil), d.order...) }

// Len returns the entry count.
func (d *Dict) Len() int { return len(d.m) }

// Func is a user-defined function (def or lambda).
type Func struct {
	name    string
	params  []string
	body    []pstmt
	expr    pexpr // lambda body
	closure *env
}

// Builtin is a Go-implemented function.
type Builtin func(in *Interp, args []Value) (Value, error)

// env is a lexical environment.
type env struct {
	vars    map[string]Value
	parent  *env
	globals map[string]bool // names declared global in this scope
}

func (e *env) lookup(name string) (Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Interp is one embedded Python interpreter instance with persistent
// global state, mirroring an initialised CPython. Out receives print()
// output. Each worker rank owns its own instance; the retain/reinit state
// policy of the paper is implemented by Reset.
type Interp struct {
	globals *env
	Out     io.Writer
	depth   int
	// InitCost simulates the fixed cost of interpreter initialisation
	// (loading an interpreter library is not free on a real system);
	// benchmarks use it to model retain-vs-reinit trade-offs.
	InitCost func()
	// parses is the compile-once fragment cache: ensemble workloads
	// evaluate the same python() fragment once per task, so the steady
	// state is parse-free, and it survives Reset (see memo.Parses).
	parses *memo.Parses[[]pstmt, pexpr]
}

// New creates an interpreter with builtins installed.
func New() *Interp {
	in := &Interp{Out: os.Stdout, parses: memo.NewParses(parseModule, parseExprString)}
	in.reset()
	return in
}

func (in *Interp) reset() {
	in.globals = &env{vars: map[string]Value{}}
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
func (in *Interp) SetGlobal(name string, v Value) { in.globals.vars[name] = v }

// DelGlobal removes a global binding (a no-op if absent); hosts use it
// to unbind stale pre-bound arguments between fragments.
func (in *Interp) DelGlobal(name string) { delete(in.globals.vars, name) }

// control-flow sentinels
type breakErr struct{}
type continueErr struct{}
type returnErr struct{ v Value }

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
	for _, s := range stmts {
		if err := in.execStmt(s, in.globals); err != nil {
			return err
		}
	}
	return nil
}

// EvalExpr evaluates a single expression against the globals, memoizing
// the parsed expression by source text.
func (in *Interp) EvalExpr(expr string) (Value, error) {
	e, err := in.parses.Expr(expr)
	if err != nil {
		return nil, err
	}
	return in.eval(e, in.globals)
}

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

func (in *Interp) execBlock(stmts []pstmt, e *env) error {
	for _, s := range stmts {
		if err := in.execStmt(s, e); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) execStmt(s pstmt, e *env) error {
	switch st := s.(type) {
	case *sExpr:
		_, err := in.eval(st.x, e)
		return err
	case *sAssign:
		return in.assign(st, e)
	case *sIf:
		c, err := in.eval(st.cond, e)
		if err != nil {
			return err
		}
		if truthy(c) {
			return in.execBlock(st.then, e)
		}
		return in.execBlock(st.els, e)
	case *sWhile:
		for {
			c, err := in.eval(st.cond, e)
			if err != nil {
				return err
			}
			if !truthy(c) {
				return nil
			}
			err = in.execBlock(st.body, e)
			if _, ok := err.(breakErr); ok {
				return nil
			}
			if _, ok := err.(continueErr); ok {
				continue
			}
			if err != nil {
				return err
			}
		}
	case *sFor:
		seq, err := in.eval(st.seq, e)
		if err != nil {
			return err
		}
		items, err := iterate(seq)
		if err != nil {
			return err
		}
		for _, item := range items {
			if len(st.vars) == 1 {
				in.bind(e, st.vars[0], item)
			} else {
				parts, ok := item.(*List)
				if !ok || len(parts.Items) != len(st.vars) {
					return fmt.Errorf("pylite: cannot unpack %s into %d variables", Repr(item), len(st.vars))
				}
				for i, name := range st.vars {
					in.bind(e, name, parts.Items[i])
				}
			}
			err := in.execBlock(st.body, e)
			if _, ok := err.(breakErr); ok {
				return nil
			}
			if _, ok := err.(continueErr); ok {
				continue
			}
			if err != nil {
				return err
			}
		}
		return nil
	case *sDef:
		fn := &Func{name: st.name, params: st.params, body: st.body, closure: e}
		in.bind(e, st.name, fn)
		return nil
	case *sReturn:
		var v Value
		if st.x != nil {
			var err error
			v, err = in.eval(st.x, e)
			if err != nil {
				return err
			}
		}
		return returnErr{v: v}
	case *sBreak:
		return breakErr{}
	case *sContinue:
		return continueErr{}
	case *sPass:
		return nil
	case *sGlobal:
		if e.globals == nil {
			e.globals = map[string]bool{}
		}
		for _, n := range st.names {
			e.globals[n] = true
		}
		return nil
	case *sImport:
		mod, err := in.importModule(st.name)
		if err != nil {
			return err
		}
		in.bind(e, st.name, mod)
		return nil
	case *sDel:
		switch t := st.target.(type) {
		case *eName:
			delete(e.vars, t.name)
			return nil
		case *eSub:
			obj, err := in.eval(t.obj, e)
			if err != nil {
				return err
			}
			idx, err := in.eval(t.idx, e)
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

func (in *Interp) bind(e *env, name string, v Value) {
	if e.globals != nil && e.globals[name] {
		in.globals.vars[name] = v
		return
	}
	e.vars[name] = v
}

func (in *Interp) assign(st *sAssign, e *env) error {
	v, err := in.eval(st.value, e)
	if err != nil {
		return err
	}
	if st.op != "=" {
		// Augmented: read-modify-write.
		old, err := in.eval(st.target, e)
		if err != nil {
			return err
		}
		op := strings.TrimSuffix(st.op, "=")
		v, err = binop(op, old, v)
		if err != nil {
			return err
		}
	}
	switch t := st.target.(type) {
	case *eName:
		in.bind(e, t.name, v)
		return nil
	case *eSub:
		obj, err := in.eval(t.obj, e)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.idx, e)
		if err != nil {
			return err
		}
		switch o := obj.(type) {
		case *List:
			i, err := listIndex(idx, len(o.Items))
			if err != nil {
				return err
			}
			o.Items[i] = v
			return nil
		case *Vec:
			i, err := listIndex(idx, o.Len())
			if err != nil {
				return err
			}
			return o.SetAt(i, v)
		case *Dict:
			if !hashable(idx) {
				return fmt.Errorf("pylite: unhashable key %s", Repr(idx))
			}
			o.Set(idx, v)
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

func listIndex(idx Value, n int) (int, error) {
	i, ok := idx.(int64)
	if !ok {
		return 0, fmt.Errorf("pylite: list index must be int, got %s", typeName(idx))
	}
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

func (in *Interp) eval(x pexpr, e *env) (Value, error) {
	switch ex := x.(type) {
	case *eNum:
		if ex.isFloat {
			return ex.f, nil
		}
		return ex.i, nil
	case *eStr:
		return ex.s, nil
	case *eBool:
		return ex.b, nil
	case *eNone:
		return nil, nil
	case *eName:
		if v, ok := e.lookup(ex.name); ok {
			return v, nil
		}
		if b, ok := pyBuiltins[ex.name]; ok {
			return b, nil
		}
		return nil, fmt.Errorf("pylite: name %q is not defined", ex.name)
	case *eBin:
		if ex.op == "and" {
			l, err := in.eval(ex.l, e)
			if err != nil {
				return nil, err
			}
			if !truthy(l) {
				return l, nil
			}
			return in.eval(ex.r, e)
		}
		if ex.op == "or" {
			l, err := in.eval(ex.l, e)
			if err != nil {
				return nil, err
			}
			if truthy(l) {
				return l, nil
			}
			return in.eval(ex.r, e)
		}
		l, err := in.eval(ex.l, e)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(ex.r, e)
		if err != nil {
			return nil, err
		}
		return binop(ex.op, l, r)
	case *eUn:
		v, err := in.eval(ex.x, e)
		if err != nil {
			return nil, err
		}
		switch ex.op {
		case "-":
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, fmt.Errorf("pylite: bad operand for unary -: %s", typeName(v))
		case "not":
			return !truthy(v), nil
		}
		return nil, fmt.Errorf("pylite: unknown unary op %q", ex.op)
	case *eList:
		lst := &List{}
		for _, el := range ex.elems {
			v, err := in.eval(el, e)
			if err != nil {
				return nil, err
			}
			lst.Items = append(lst.Items, v)
		}
		return lst, nil
	case *eDict:
		d := NewDict()
		for i := range ex.keys {
			k, err := in.eval(ex.keys[i], e)
			if err != nil {
				return nil, err
			}
			if !hashable(k) {
				return nil, fmt.Errorf("pylite: unhashable key %s", Repr(k))
			}
			v, err := in.eval(ex.vals[i], e)
			if err != nil {
				return nil, err
			}
			d.Set(k, v)
		}
		return d, nil
	case *eSub:
		obj, err := in.eval(ex.obj, e)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(ex.idx, e)
		if err != nil {
			return nil, err
		}
		switch o := obj.(type) {
		case *List:
			i, err := listIndex(idx, len(o.Items))
			if err != nil {
				return nil, err
			}
			return o.Items[i], nil
		case *Vec:
			i, err := listIndex(idx, o.Len())
			if err != nil {
				return nil, err
			}
			return o.At(i), nil
		case string:
			i, err := listIndex(idx, len(o))
			if err != nil {
				return nil, err
			}
			return string(o[i]), nil
		case *Dict:
			v, ok := o.Get(idx)
			if !ok {
				return nil, fmt.Errorf("pylite: KeyError: %s", Repr(idx))
			}
			return v, nil
		}
		return nil, fmt.Errorf("pylite: %s is not subscriptable", typeName(obj))
	case *eSlice:
		obj, err := in.eval(ex.obj, e)
		if err != nil {
			return nil, err
		}
		var length int
		switch o := obj.(type) {
		case *List:
			length = len(o.Items)
		case string:
			length = len(o)
		default:
			return nil, fmt.Errorf("pylite: %s is not sliceable", typeName(obj))
		}
		lo, hi := 0, length
		if ex.lo != nil {
			v, err := in.eval(ex.lo, e)
			if err != nil {
				return nil, err
			}
			lo = clampIndex(v, length)
		}
		if ex.hi != nil {
			v, err := in.eval(ex.hi, e)
			if err != nil {
				return nil, err
			}
			hi = clampIndex(v, length)
		}
		if lo > hi {
			lo = hi
		}
		switch o := obj.(type) {
		case *List:
			return &List{Items: append([]Value(nil), o.Items[lo:hi]...)}, nil
		case string:
			return o[lo:hi], nil
		}
		return nil, nil
	case *eAttr:
		obj, err := in.eval(ex.obj, e)
		if err != nil {
			return nil, err
		}
		if m, ok := obj.(*Dict2Mod); ok {
			if v, ok := m.vars[ex.name]; ok {
				return v, nil
			}
			return nil, fmt.Errorf("pylite: module %q has no attribute %q", m.name, ex.name)
		}
		return boundMethod(obj, ex.name)
	case *eLambda:
		return &Func{name: "<lambda>", params: ex.params, expr: ex.body, closure: e}, nil
	case *eCall:
		fn, err := in.eval(ex.fn, e)
		if err != nil {
			return nil, err
		}
		var args []Value
		for _, a := range ex.args {
			v, err := in.eval(a, e)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		}
		return in.call(fn, args)
	}
	return nil, fmt.Errorf("pylite: unknown expression %T", x)
}

func clampIndex(v Value, n int) int {
	i, ok := v.(int64)
	if !ok {
		return 0
	}
	j := int(i)
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

func (in *Interp) call(fn Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case Builtin:
		return f(in, args)
	case *Func:
		if len(args) != len(f.params) {
			return nil, fmt.Errorf("pylite: %s() takes %d arguments, got %d", f.name, len(f.params), len(args))
		}
		in.depth++
		defer func() { in.depth-- }()
		if in.depth > 500 {
			return nil, fmt.Errorf("pylite: maximum recursion depth exceeded")
		}
		local := &env{vars: map[string]Value{}, parent: f.closure}
		for i, p := range f.params {
			local.vars[p] = args[i]
		}
		if f.expr != nil { // lambda
			return in.eval(f.expr, local)
		}
		err := in.execBlock(f.body, local)
		if r, ok := err.(returnErr); ok {
			return r.v, nil
		}
		if err != nil {
			return nil, err
		}
		return nil, nil
	}
	return nil, fmt.Errorf("pylite: %s is not callable", typeName(fn))
}

// binop implements arithmetic and comparison.
func binop(op string, l, r Value) (Value, error) {
	// String operations.
	if ls, ok := l.(string); ok && op != "in" {
		switch op {
		case "+":
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
		case "*":
			if n, ok := r.(int64); ok {
				return strings.Repeat(ls, int(n)), nil
			}
		case "%":
			return pyFormat(ls, r)
		case "==", "!=", "<", "<=", ">", ">=":
			if rs, ok := r.(string); ok {
				return cmpResult(op, strings.Compare(ls, rs)), nil
			}
			if op == "==" {
				return false, nil
			}
			if op == "!=" {
				return true, nil
			}
		}
	}
	if op == "in" {
		switch c := r.(type) {
		case *List:
			for _, it := range c.Items {
				if equal(l, it) {
					return true, nil
				}
			}
			return false, nil
		case *Dict:
			if !hashable(l) {
				return false, nil
			}
			_, ok := c.Get(l)
			return ok, nil
		case string:
			ls, ok := l.(string)
			if !ok {
				return nil, fmt.Errorf("pylite: 'in <string>' requires string operand")
			}
			return strings.Contains(c, ls), nil
		}
		return nil, fmt.Errorf("pylite: argument of type %s is not iterable", typeName(r))
	}
	// List concatenation/repetition.
	if ll, ok := l.(*List); ok {
		switch op {
		case "+":
			if rl, ok := r.(*List); ok {
				return &List{Items: append(append([]Value(nil), ll.Items...), rl.Items...)}, nil
			}
		case "*":
			if n, ok := r.(int64); ok {
				out := &List{}
				for i := int64(0); i < n; i++ {
					out.Items = append(out.Items, ll.Items...)
				}
				return out, nil
			}
		case "==":
			rl, ok := r.(*List)
			return ok && listEqual(ll, rl), nil
		case "!=":
			rl, ok := r.(*List)
			return !(ok && listEqual(ll, rl)), nil
		}
	}
	if op == "==" {
		return equal(l, r), nil
	}
	if op == "!=" {
		return !equal(l, r), nil
	}
	// Numeric.
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lb, ok := l.(bool); ok {
		li, lIsInt = boolToInt(lb), true
	}
	if rb, ok := r.(bool); ok {
		ri, rIsInt = boolToInt(rb), true
	}
	if lIsInt && rIsInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("pylite: division by zero")
			}
			return float64(li) / float64(ri), nil // Python 3 true division
		case "//":
			if ri == 0 {
				return nil, fmt.Errorf("pylite: division by zero")
			}
			q := li / ri
			if (li%ri != 0) && ((li < 0) != (ri < 0)) {
				q--
			}
			return q, nil
		case "%":
			if ri == 0 {
				return nil, fmt.Errorf("pylite: division by zero")
			}
			m := li % ri
			if m != 0 && ((li < 0) != (ri < 0)) {
				m += ri
			}
			return m, nil
		case "**":
			if ri < 0 {
				return math.Pow(float64(li), float64(ri)), nil
			}
			out := int64(1)
			for i := int64(0); i < ri; i++ {
				out *= li
			}
			return out, nil
		case "<", "<=", ">", ">=":
			return cmpResult(op, cmpInt(li, ri)), nil
		}
	}
	lf, errL := toFloat(l)
	rf, errR := toFloat(r)
	if errL != nil || errR != nil {
		return nil, fmt.Errorf("pylite: unsupported operand types for %s: %s and %s", op, typeName(l), typeName(r))
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("pylite: division by zero")
		}
		return lf / rf, nil
	case "//":
		if rf == 0 {
			return nil, fmt.Errorf("pylite: division by zero")
		}
		return math.Floor(lf / rf), nil
	case "%":
		if rf == 0 {
			return nil, fmt.Errorf("pylite: division by zero")
		}
		return math.Mod(math.Mod(lf, rf)+rf, rf), nil
	case "**":
		return math.Pow(lf, rf), nil
	case "<", "<=", ">", ">=":
		return cmpResult(op, cmpFloat(lf, rf)), nil
	}
	return nil, fmt.Errorf("pylite: unknown operator %q", op)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpResult(op string, c int) bool {
	switch op {
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	case "==":
		return c == 0
	case "!=":
		return c != 0
	}
	return false
}

func equal(l, r Value) bool {
	if ll, ok := l.(*List); ok {
		rl, ok := r.(*List)
		return ok && listEqual(ll, rl)
	}
	lf, okL := l.(float64)
	ri, okR := r.(int64)
	if okL && okR {
		return lf == float64(ri)
	}
	li, okL2 := l.(int64)
	rf, okR2 := r.(float64)
	if okL2 && okR2 {
		return float64(li) == rf
	}
	return l == r
}

func listEqual(a, b *List) bool {
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if !equal(a.Items[i], b.Items[i]) {
			return false
		}
	}
	return true
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
		return "<function " + x.name + ">"
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
