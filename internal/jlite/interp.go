package jlite

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/memo"
	"repro/internal/vecview"
)

// Value is a jlite runtime value: nil (nothing), bool, int64, float64,
// string, *Vec (blob-backed vector), *Arr (fresh vector, see vec.go),
// *Range, *Func, or Builtin.
type Value any

// Range is an inclusive step-1 integer range (lo:hi), iterable and
// 1-based indexable without materialising its elements.
type Range struct{ Lo, Hi int64 }

// Len returns the element count (0 when hi < lo).
func (r *Range) Len() int {
	if r.Hi < r.Lo {
		return 0
	}
	return int(r.Hi - r.Lo + 1)
}

// Func is a user-defined `function name(params) … end`.
type Func struct {
	name    string
	params  []string
	body    []jstmt
	closure *env
}

// Builtin is a Go-implemented function.
type Builtin func(in *Interp, args []Value) (Value, error)

type env struct {
	vars   map[string]Value
	parent *env
}

func (e *env) lookup(name string) (Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// assignExisting rebinds name in the innermost scope that already holds
// it, returning false when no scope does. This is REPL-style soft scope
// applied everywhere, a deliberate jlite simplification: real Julia
// makes an assignment inside a function local unless the name is
// declared `global`, but fragment-sized glue reads better without the
// declaration and the retain/reinit policy depends on top-level
// assignments landing in the globals either way.
func (e *env) assignExisting(name string, v Value) bool {
	for cur := e; cur != nil; cur = cur.parent {
		if _, ok := cur.vars[name]; ok {
			cur.vars[name] = v
			return true
		}
	}
	return false
}

// Interp is one embedded Julia-like interpreter instance with persistent
// global state, mirroring an initialised libjulia. Out receives
// println() output. Each worker rank owns its own instance; the
// retain/reinit state policy of the paper is implemented by Reset.
type Interp struct {
	globals *env
	Out     io.Writer
	depth   int
	// parses is the compile-once fragment cache; it survives Reset (see
	// memo.Parses).
	parses *memo.Parses[[]jstmt, *Expr]
}

// New creates an interpreter with builtins installed.
func New() *Interp {
	in := &Interp{Out: os.Stdout, parses: memo.NewParses(parseProgram, parseExpr)}
	in.reset()
	return in
}

func (in *Interp) reset() {
	in.globals = &env{vars: map[string]Value{}}
}

// Reset finalises and reinitialises the interpreter, discarding all
// global state (the paper's "reinitialize" policy, §III-C) but not the
// fragment caches: cached parses are immutable and state-free.
func (in *Interp) Reset() { in.reset() }

// SetGlobal binds a value into the interpreter's global scope; hosts use
// it to pre-bind fragment arguments (argv1..argvN), as a C embedding
// would via jl_set_global.
func (in *Interp) SetGlobal(name string, v Value) { in.globals.vars[name] = v }

// DelGlobal removes a global binding (a no-op if absent); hosts use it
// to unbind stale pre-bound arguments between fragments.
func (in *Interp) DelGlobal(name string) { delete(in.globals.vars, name) }

// control-flow sentinels
type breakErr struct{}
type continueErr struct{}
type returnErr struct{ v Value }

func (breakErr) Error() string    { return "jlite: break outside loop" }
func (continueErr) Error() string { return "jlite: continue outside loop" }
func (returnErr) Error() string   { return "jlite: return outside function" }

// Exec runs a block of statements against the persistent globals.
// Parsing is memoized: each distinct source string is parsed once per
// interpreter and the immutable statement list is replayed thereafter.
func (in *Interp) Exec(code string) error {
	stmts, err := in.parses.Program(code)
	if err != nil {
		return err
	}
	_, err = in.execBlock(stmts, in.globals)
	return err
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
// and no global displaces a builtin it calls.
func (in *Interp) ParseExpr(expr string) (x *Expr, keepsNothing bool, err error) {
	if x, err = in.parses.Expr(expr); err != nil {
		return nil, false, err
	}
	keeps := x.keeps
	for _, name := range x.calls {
		_, shadowed := in.globals.vars[name]
		keeps = keeps || shadowed
	}
	return x, !keeps, nil
}

// EvalParsed evaluates a parsed expression against the globals.
func (in *Interp) EvalParsed(x *Expr) (Value, error) { return in.eval(x.x, in.globals) }

// ParseStats reports the fragment cache's counters.
func (in *Interp) ParseStats() memo.BudgetStats { return in.parses.Stats() }

// EvalFragment is the Swift/T julia(code, expr) entry point: execute
// code, then evaluate expr and return its string() form.
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

// execBlock runs statements and returns the value of the last one
// (Julia's block-value semantics; loops and definitions yield nothing).
func (in *Interp) execBlock(stmts []jstmt, e *env) (Value, error) {
	var last Value
	for _, s := range stmts {
		v, err := in.execStmt(s, e)
		if err != nil {
			return nil, err
		}
		last = v
	}
	return last, nil
}

func (in *Interp) execStmt(s jstmt, e *env) (Value, error) {
	switch st := s.(type) {
	case *sExpr:
		return in.eval(st.x, e)
	case *sAssign:
		return nil, in.assign(st, e)
	case *sFunc:
		fn := &Func{name: st.name, params: st.params, body: st.body, closure: e}
		in.bind(e, st.name, fn)
		return nil, nil
	case *sIf:
		for i, cond := range st.conds {
			c, err := in.eval(cond, e)
			if err != nil {
				return nil, err
			}
			b, err := asCond(c)
			if err != nil {
				return nil, err
			}
			if b {
				return in.execBlock(st.blocks[i], e)
			}
		}
		return in.execBlock(st.els, e)
	case *sWhile:
		for {
			c, err := in.eval(st.cond, e)
			if err != nil {
				return nil, err
			}
			b, err := asCond(c)
			if err != nil {
				return nil, err
			}
			if !b {
				return nil, nil
			}
			if _, err := in.execBlock(st.body, e); err != nil {
				if _, ok := err.(breakErr); ok {
					return nil, nil
				}
				if _, ok := err.(continueErr); ok {
					continue
				}
				return nil, err
			}
		}
	case *sFor:
		seq, err := in.eval(st.seq, e)
		if err != nil {
			return nil, err
		}
		err = forEach(seq, func(item Value) error {
			in.bind(e, st.v, item)
			_, err := in.execBlock(st.body, e)
			return err
		})
		if err != nil {
			if _, ok := err.(breakErr); ok {
				return nil, nil
			}
			return nil, err
		}
		return nil, nil
	case *sReturn:
		var v Value
		if st.x != nil {
			var err error
			v, err = in.eval(st.x, e)
			if err != nil {
				return nil, err
			}
		}
		return nil, returnErr{v: v}
	case *sBreak:
		return nil, breakErr{}
	case *sContinue:
		return nil, continueErr{}
	}
	return nil, fmt.Errorf("jlite: unknown statement %T", s)
}

// forEach iterates a sequence value without materialising ranges.
// continue propagates per item; break and real errors abort.
func forEach(seq Value, f func(Value) error) error {
	each := func(item Value) error {
		err := f(item)
		if _, ok := err.(continueErr); ok {
			return nil
		}
		return err
	}
	switch s := seq.(type) {
	case *Range:
		for i := s.Lo; i <= s.Hi; i++ {
			if err := each(i); err != nil {
				return err
			}
		}
		return nil
	case *Arr:
		// Bounded by the length at entry, as ranging over a slice is: a
		// push! in the body does not extend the loop.
		n := s.Len()
		for i := 0; i < n; i++ {
			if err := each(s.read(i)); err != nil {
				return err
			}
		}
		return nil
	case *Vec:
		n := s.Len()
		for i := 0; i < n; i++ {
			if err := each(s.At(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("jlite: %s is not iterable", typeName(seq))
}

// bind assigns name in the innermost scope already holding it, creating
// it in the current scope otherwise.
func (in *Interp) bind(e *env, name string, v Value) {
	if e.assignExisting(name, v) {
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
		old, err := in.eval(st.target, e)
		if err != nil {
			return err
		}
		v, err = in.binop(strings.TrimSuffix(st.op, "="), old, v, e)
		if err != nil {
			return err
		}
	}
	switch t := st.target.(type) {
	case *jName:
		in.bind(e, t.name, v)
		return nil
	case *jIndex:
		obj, err := in.eval(t.obj, e)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.idx, e)
		if err != nil {
			return err
		}
		switch o := obj.(type) {
		case *Vec:
			i, err := oneBasedIndex(idx, o.Len())
			if err != nil {
				return err
			}
			return o.SetAt(i, v)
		case *Arr:
			i, err := oneBasedIndex(idx, o.Len())
			if err != nil {
				return err
			}
			if !isNumeric(v) {
				return fmt.Errorf("jlite: cannot store %s in a numeric vector", typeName(v))
			}
			o.set(i, v)
			return nil
		}
		return fmt.Errorf("jlite: cannot index-assign %s", typeName(obj))
	}
	return fmt.Errorf("jlite: bad assignment target")
}

// oneBasedIndex converts a Julia-style 1-based index to a 0-based slice
// offset, with bounds checking.
func oneBasedIndex(idx Value, n int) (int, error) {
	i, ok := idx.(int64)
	if !ok {
		if f, okf := idx.(float64); okf && float64(int64(f)) == f {
			i, ok = int64(f), true
		}
	}
	if !ok {
		return 0, fmt.Errorf("jlite: vector index must be an integer, got %s", typeName(idx))
	}
	if i < 1 || i > int64(n) {
		return 0, fmt.Errorf("jlite: BoundsError: attempt to access %d-element vector at index [%d]", n, i)
	}
	return int(i - 1), nil
}

func isNumeric(v Value) bool {
	switch v.(type) {
	case int64, float64, bool:
		return true
	}
	return false
}

func asCond(v Value) (bool, error) {
	b, ok := v.(bool)
	if !ok {
		return false, fmt.Errorf("jlite: TypeError: non-boolean (%s) used in boolean context", typeName(v))
	}
	return b, nil
}

func typeName(v Value) string {
	switch v.(type) {
	case nil:
		return "Nothing"
	case bool:
		return "Bool"
	case int64:
		return "Int64"
	case float64:
		return "Float64"
	case string:
		return "String"
	case *Vec, *Arr:
		return "Vector"
	case *Range:
		return "UnitRange"
	case *Func:
		return "Function"
	case Builtin:
		return "Builtin"
	}
	return fmt.Sprintf("%T", v)
}

// ---- evaluation ----

func (in *Interp) eval(x jexpr, e *env) (Value, error) {
	switch ex := x.(type) {
	case *jInt:
		return ex.v, nil
	case *jFloat:
		return ex.v, nil
	case *jStrLit:
		return ex.v, nil
	case *jBool:
		return ex.v, nil
	case *jNothing:
		return nil, nil
	case *jName:
		if v, ok := e.lookup(ex.name); ok {
			return v, nil
		}
		if b, ok := jBuiltins[ex.name]; ok {
			return b, nil
		}
		return nil, fmt.Errorf("jlite: UndefVarError: %s not defined", ex.name)
	case *jBin:
		switch ex.op {
		case "&&", "||":
			l, err := in.eval(ex.l, e)
			if err != nil {
				return nil, err
			}
			lb, err := asCond(l)
			if err != nil {
				return nil, err
			}
			if (ex.op == "&&" && !lb) || (ex.op == "||" && lb) {
				return lb, nil
			}
			r, err := in.eval(ex.r, e)
			if err != nil {
				return nil, err
			}
			return asCond(r)
		}
		l, err := in.eval(ex.l, e)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(ex.r, e)
		if err != nil {
			return nil, err
		}
		return in.binop(ex.op, l, r, e)
	case *jUn:
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
			case *Vec, *Arr, *Range:
				return in.broadcast("*", v, int64(-1))
			}
			return nil, fmt.Errorf("jlite: no method -(%s)", typeName(v))
		case "!":
			b, err := asCond(v)
			if err != nil {
				return nil, err
			}
			return !b, nil
		}
		return nil, fmt.Errorf("jlite: unknown unary op %q", ex.op)
	case *jArrLit:
		elems := make([]Value, 0, len(ex.elems))
		for _, el := range ex.elems {
			v, err := in.eval(el, e)
			if err != nil {
				return nil, err
			}
			if !isNumeric(v) {
				return nil, fmt.Errorf("jlite: vector literals hold numbers, got %s", typeName(v))
			}
			elems = append(elems, v)
		}
		return newArr(elems), nil
	case *jIndex:
		obj, err := in.eval(ex.obj, e)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(ex.idx, e)
		if err != nil {
			return nil, err
		}
		switch o := obj.(type) {
		case *Vec:
			i, err := oneBasedIndex(idx, o.Len())
			if err != nil {
				return nil, err
			}
			return o.At(i), nil
		case *Arr:
			i, err := oneBasedIndex(idx, o.Len())
			if err != nil {
				return nil, err
			}
			return o.read(i), nil
		case *Range:
			i, err := oneBasedIndex(idx, o.Len())
			if err != nil {
				return nil, err
			}
			return o.Lo + int64(i), nil
		}
		return nil, fmt.Errorf("jlite: %s is not indexable", typeName(obj))
	case *jCall:
		fn, err := in.eval(ex.fn, e)
		if err != nil {
			return nil, err
		}
		args := make([]Value, len(ex.args))
		for i, a := range ex.args {
			v, err := in.eval(a, e)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return in.call(fn, args)
	}
	return nil, fmt.Errorf("jlite: unknown expression %T", x)
}

func (in *Interp) call(fn Value, args []Value) (Value, error) {
	switch f := fn.(type) {
	case Builtin:
		return f(in, args)
	case *Func:
		if len(args) != len(f.params) {
			return nil, fmt.Errorf("jlite: MethodError: %s takes %d argument(s), got %d",
				f.name, len(f.params), len(args))
		}
		in.depth++
		defer func() { in.depth-- }()
		if in.depth > 500 {
			return nil, fmt.Errorf("jlite: StackOverflowError: recursion too deep")
		}
		local := &env{vars: map[string]Value{}, parent: f.closure}
		for i, p := range f.params {
			local.vars[p] = args[i]
		}
		v, err := in.execBlock(f.body, local)
		if r, ok := err.(returnErr); ok {
			return r.v, nil
		}
		if err != nil {
			return nil, err
		}
		return v, nil
	}
	return nil, fmt.Errorf("jlite: %s is not callable", typeName(fn))
}

// ---- operators ----

func isVector(v Value) bool {
	switch v.(type) {
	case *Vec, *Arr, *Range:
		return true
	}
	return false
}

var dotOf = map[string]string{".+": "+", ".-": "-", ".*": "*", "./": "/", ".^": "^"}

// binop dispatches an operator: dot forms broadcast elementwise, plain
// forms follow Julia's vector conventions (+/- between equal-length
// vectors, * and / against scalars), and everything else is scalar.
func (in *Interp) binop(op string, l, r Value, e *env) (Value, error) {
	if op == ":" {
		lo, okL := asExactInt(l)
		hi, okR := asExactInt(r)
		if !okL || !okR {
			return nil, fmt.Errorf("jlite: range endpoints must be integers, got %s:%s", typeName(l), typeName(r))
		}
		return &Range{Lo: lo, Hi: hi}, nil
	}
	if scalar, ok := dotOf[op]; ok {
		return in.broadcast(scalar, l, r)
	}
	if isVector(l) || isVector(r) {
		switch op {
		case "+", "-":
			if isVector(l) && isVector(r) {
				return in.broadcast(op, l, r)
			}
		case "*":
			if isVector(l) != isVector(r) { // scalar * vector or vector * scalar
				return in.broadcast(op, l, r)
			}
		case "/":
			if isVector(l) && !isVector(r) {
				return in.broadcast(op, l, r)
			}
		case "==", "!=":
			eq, err := vectorEqual(l, r)
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				eq = !eq
			}
			return eq, nil
		}
		return nil, fmt.Errorf("jlite: no method %s(%s, %s); use the broadcast form .%s",
			op, typeName(l), typeName(r), op)
	}
	return scalarBinop(op, l, r)
}

// asExactInt widens a scalar to int64 when exact.
func asExactInt(v Value) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case float64:
		if float64(int64(n)) == n {
			return int64(n), true
		}
	case bool:
		if n {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// vecLen is a vector's length, -1 for a scalar.
func vecLen(v Value) int {
	switch s := v.(type) {
	case *Arr:
		return s.Len()
	case *Vec:
		return s.Len()
	case *Range:
		return s.Len()
	}
	return -1
}

// elemsOf materialises a vector operand boxed; scalars return (nil, -1).
func elemsOf(v Value) ([]Value, int) {
	switch s := v.(type) {
	case *Arr:
		return s.items(), s.Len()
	case *Vec:
		out := make([]Value, s.Len())
		for i := range out {
			out[i] = s.At(i)
		}
		return out, len(out)
	case *Range:
		out := make([]Value, s.Len())
		for i := range out {
			out[i] = s.Lo + int64(i)
		}
		return out, len(out)
	}
	return nil, -1
}

var kernelOf = map[string]vecview.Op{"+": vecview.Add, "-": vecview.Sub, "*": vecview.Mul, "/": vecview.Div, "^": vecview.Pow}

// broadcast applies a scalar operator elementwise. Operand lengths must
// match exactly — Julia broadcasts, it does not recycle like R. Columns,
// blob views, ranges and numbers go through vecview's typed kernel; a
// boxed array, a non-number, or an Int ^ Int whose exponents have both
// signs takes the per-element scalarBinop path.
func (in *Interp) broadcast(op string, l, r Value) (Value, error) {
	ln, rn := vecLen(l), vecLen(r)
	if ln < 0 && rn < 0 {
		return scalarBinop(op, l, r)
	}
	if ln >= 0 && rn >= 0 && ln != rn {
		return nil, fmt.Errorf("jlite: DimensionMismatch: vectors of length %d and %d", ln, rn)
	}
	n := max(ln, rn)
	if lo, ok := operand(l); ok {
		if ro, ok := operand(r); ok {
			if v, ok := vecview.Elementwise(vecProfile, kernelOf[op], lo, ro, n); ok {
				return column(v), nil
			}
		}
	}
	le, _ := elemsOf(l)
	re, _ := elemsOf(r)
	out := make([]Value, n)
	for i := 0; i < n; i++ {
		a, b := l, r
		if ln >= 0 {
			a = le[i]
		}
		if rn >= 0 {
			b = re[i]
		}
		v, err := scalarBinop(op, a, b)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return newArr(out), nil
}

// vectorEqual implements == between vectors (elementwise all-equal, the
// useful subset of Julia's array ==).
func vectorEqual(l, r Value) (bool, error) {
	le, ln := elemsOf(l)
	re, rn := elemsOf(r)
	if ln < 0 || rn < 0 {
		return false, nil
	}
	if ln != rn {
		return false, nil
	}
	for i := range le {
		v, err := scalarBinop("==", le[i], re[i])
		if err != nil {
			return false, err
		}
		if v != true {
			return false, nil
		}
	}
	return true, nil
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
	return 0, fmt.Errorf("jlite: expected a number, got %s", typeName(v))
}

// scalarBinop implements arithmetic and comparison on scalars: Int64
// arithmetic stays integral (except /, which is true division as in
// Julia), Float64 contaminates, strings concatenate with * and repeat
// with ^ (Julia's string algebra).
func scalarBinop(op string, l, r Value) (Value, error) {
	if ls, ok := l.(string); ok {
		switch op {
		case "*":
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
		case "^":
			if n, ok := r.(int64); ok && n >= 0 {
				return strings.Repeat(ls, int(n)), nil
			}
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
		return nil, fmt.Errorf("jlite: no method %s(String, %s)", op, typeName(r))
	}
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
			// Julia true division: Int / Int is Float64.
			if ri == 0 {
				if li == 0 {
					return math.NaN(), nil
				}
				return math.Inf(int(sign(li))), nil
			}
			return float64(li) / float64(ri), nil
		case "%":
			if ri == 0 {
				return nil, fmt.Errorf("jlite: DivideError: integer division by zero")
			}
			return li % ri, nil // Julia rem: sign of the dividend
		case "^":
			if ri < 0 {
				return math.Pow(float64(li), float64(ri)), nil
			}
			return vecview.IntPow(li, ri), nil // wraps as Julia's Int ^ does
		case "==", "!=", "<", "<=", ">", ">=":
			return cmpResult(op, cmpInt(li, ri)), nil
		}
		return nil, fmt.Errorf("jlite: unknown operator %q", op)
	}
	lf, errL := toFloat(l)
	rf, errR := toFloat(r)
	if errL != nil || errR != nil {
		return nil, fmt.Errorf("jlite: no method %s(%s, %s)", op, typeName(l), typeName(r))
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		return lf / rf, nil
	case "%":
		return math.Mod(lf, rf), nil
	case "^":
		return math.Pow(lf, rf), nil
	case "==", "!=", "<", "<=", ">", ">=":
		// IEEE/Julia NaN semantics: every ordered comparison with a NaN
		// is false (NaN == NaN included), and only != is true.
		if math.IsNaN(lf) || math.IsNaN(rf) {
			return op == "!=", nil
		}
		return cmpResult(op, cmpFloat(lf, rf)), nil
	}
	return nil, fmt.Errorf("jlite: unknown operator %q", op)
}

func sign(n int64) int64 {
	if n < 0 {
		return -1
	}
	return 1
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

// Str renders a value the way the Julia REPL's string() would.
func Str(v Value) string {
	switch x := v.(type) {
	case nil:
		return "nothing"
	case bool:
		if x {
			return "true"
		}
		return "false"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return renderFloat(x)
	case string:
		return x
	case *Arr:
		parts := make([]string, x.Len())
		for i := range parts {
			parts[i] = Str(x.at(i))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Vec:
		parts := make([]string, x.Len())
		for i := range parts {
			parts[i] = Str(x.At(i))
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *Range:
		return fmt.Sprintf("%d:%d", x.Lo, x.Hi)
	case *Func:
		return "function " + x.name
	case Builtin:
		return "builtin function"
	}
	return fmt.Sprintf("%v", v)
}

// renderFloat formats a float the Julia way: integral values keep a
// trailing ".0" so Float64 never masquerades as Int64.
func renderFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eEnN") {
		s += ".0"
	}
	return s
}
