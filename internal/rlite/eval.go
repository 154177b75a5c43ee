package rlite

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/memo"
)

// Value is an rlite runtime value: *NumVec, *StrVec, *BoolVec, *RFunc,
// Builtin, or Null.
type Value any

// Null is R's NULL.
type Null struct{}

// NumVec is a numeric vector (R's double type; scalars are length 1).
// Written is set by a write into V in place.
type NumVec struct {
	V       []float64
	Written bool
}

// StrVec is a character vector.
type StrVec struct{ V []string }

// BoolVec is a logical vector.
type BoolVec struct{ V []bool }

// RFunc is a user-defined function (closure).
type RFunc struct {
	params  []rparam
	body    rexpr
	closure *renv
}

// Builtin is a Go-implemented R function.
type Builtin func(in *Interp, args []Value, names []string) (Value, error)

// Num builds a length-1 numeric vector.
func Num(v float64) *NumVec { return &NumVec{V: []float64{v}} }

// Chr builds a length-1 character vector.
func Chr(s string) *StrVec { return &StrVec{V: []string{s}} }

// Lgl builds a length-1 logical vector.
func Lgl(b bool) *BoolVec { return &BoolVec{V: []bool{b}} }

type renv struct {
	vars   map[string]Value
	parent *renv
}

func (e *renv) lookup(name string) (Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// assign sets in the defining scope if the name exists up-chain (R's <-
// in a function creates a local; we create locals always, matching <-).
func (e *renv) set(name string, v Value) { e.vars[name] = v }

// Interp is one embedded R interpreter with persistent global state.
type Interp struct {
	globals *renv
	Out     io.Writer
	depth   int
	// InitCost simulates interpreter initialisation cost (see pylite).
	InitCost func()
	// parses is the compile-once fragment cache; it survives Reset (see
	// memo.Parses). R draws no syntactic line between a fragment's code
	// and its expression, so both sides parse as programs.
	parses *memo.Parses[[]rexpr, []rexpr]
}

// New creates an interpreter.
func New() *Interp {
	in := &Interp{Out: os.Stdout, parses: memo.NewParses(parseR, parseR)}
	in.reset()
	return in
}

func (in *Interp) reset() {
	in.globals = &renv{vars: map[string]Value{}}
	if in.InitCost != nil {
		in.InitCost()
	}
}

// Reset reinitialises the interpreter, discarding all state (§III-C).
func (in *Interp) Reset() { in.reset() }

type rBreakErr struct{}
type rNextErr struct{}
type rReturnErr struct{ v Value }

func (rBreakErr) Error() string  { return "rlite: break outside loop" }
func (rNextErr) Error() string   { return "rlite: next outside loop" }
func (rReturnErr) Error() string { return "rlite: return outside function" }

// Eval executes a chunk of R code, returning the value of the last
// expression. Parsing is memoized: each distinct source string is parsed
// once per interpreter and the immutable program is replayed thereafter.
func (in *Interp) Eval(code string) (Value, error) {
	prog, err := in.parses.Program(code)
	if err != nil {
		return nil, err
	}
	return in.run(prog)
}

// Exec evaluates the code half of a fragment for its effects.
func (in *Interp) Exec(code string) error {
	_, err := in.Eval(code)
	return err
}

// EvalExpr evaluates the expression half of a fragment, memoized on the
// expression side of the cache.
func (in *Interp) EvalExpr(expr string) (Value, error) {
	prog, err := in.parses.Expr(expr)
	if err != nil {
		return nil, err
	}
	return in.run(prog)
}

// ParseStats reports the fragment cache's counters.
func (in *Interp) ParseStats() memo.BudgetStats { return in.parses.Stats() }

// run evaluates a parsed program against the globals, returning the value
// of its last expression.
func (in *Interp) run(prog []rexpr) (Value, error) {
	var last Value = Null{}
	for _, e := range prog {
		var err error
		last, err = in.eval(e, in.globals)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// EvalFragment is the Swift/T r(code, expr) entry point: evaluate code,
// then expr, returning the deparsed result.
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
	return Deparse(v), nil
}

func (in *Interp) eval(x rexpr, e *renv) (Value, error) {
	switch ex := x.(type) {
	case *rNum:
		return Num(ex.v), nil
	case *rStr:
		return Chr(ex.v), nil
	case *rBool:
		return Lgl(ex.v), nil
	case *rNull:
		return Null{}, nil
	case *rName:
		if v, ok := e.lookup(ex.name); ok {
			return v, nil
		}
		if b, ok := rBuiltins[ex.name]; ok {
			return b, nil
		}
		return nil, fmt.Errorf("rlite: object %q not found", ex.name)
	case *rAssign:
		v, err := in.eval(ex.value, e)
		if err != nil {
			return nil, err
		}
		switch t := ex.target.(type) {
		case *rName:
			e.set(t.name, v)
			return v, nil
		case *rIndex:
			return in.indexAssign(t, v, e)
		}
		return nil, fmt.Errorf("rlite: bad assignment target")
	case *rBlock:
		var last Value = Null{}
		var err error
		for _, s := range ex.stmts {
			last, err = in.eval(s, e)
			if err != nil {
				return nil, err
			}
		}
		return last, nil
	case *rIf:
		c, err := in.eval(ex.cond, e)
		if err != nil {
			return nil, err
		}
		b, err := scalarBool(c)
		if err != nil {
			return nil, err
		}
		if b {
			return in.eval(ex.then, e)
		}
		if ex.els != nil {
			return in.eval(ex.els, e)
		}
		return Null{}, nil
	case *rFor:
		seq, err := in.eval(ex.seq, e)
		if err != nil {
			return nil, err
		}
		items, err := elements(seq)
		if err != nil {
			return nil, err
		}
		for _, item := range items {
			e.set(ex.v, item)
			_, err := in.eval(ex.body, e)
			if _, ok := err.(rBreakErr); ok {
				return Null{}, nil
			}
			if _, ok := err.(rNextErr); ok {
				continue
			}
			if err != nil {
				return nil, err
			}
		}
		return Null{}, nil
	case *rWhile:
		for {
			c, err := in.eval(ex.cond, e)
			if err != nil {
				return nil, err
			}
			b, err := scalarBool(c)
			if err != nil {
				return nil, err
			}
			if !b {
				return Null{}, nil
			}
			_, err = in.eval(ex.body, e)
			if _, ok := err.(rBreakErr); ok {
				return Null{}, nil
			}
			if _, ok := err.(rNextErr); ok {
				continue
			}
			if err != nil {
				return nil, err
			}
		}
	case *rFuncLit:
		return &RFunc{params: ex.params, body: ex.body, closure: e}, nil
	case *rReturn:
		v, err := in.eval(ex.x, e)
		if err != nil {
			return nil, err
		}
		return nil, rReturnErr{v: v}
	case *rBreak:
		return nil, rBreakErr{}
	case *rNext:
		return nil, rNextErr{}
	case *rUn:
		v, err := in.eval(ex.x, e)
		if err != nil {
			return nil, err
		}
		switch ex.op {
		case "-":
			nv, err := asNum(v)
			if err != nil {
				return nil, err
			}
			out := make([]float64, len(nv.V))
			for i, f := range nv.V {
				out[i] = -f
			}
			return &NumVec{V: out}, nil
		case "!":
			bv, err := asBool(v)
			if err != nil {
				return nil, err
			}
			out := make([]bool, len(bv.V))
			for i, b := range bv.V {
				out[i] = !b
			}
			return &BoolVec{V: out}, nil
		}
		return nil, fmt.Errorf("rlite: unknown unary op %q", ex.op)
	case *rBin:
		l, err := in.eval(ex.l, e)
		if err != nil {
			return nil, err
		}
		r, err := in.eval(ex.r, e)
		if err != nil {
			return nil, err
		}
		return rBinop(ex.op, l, r)
	case *rIndex:
		obj, err := in.eval(ex.obj, e)
		if err != nil {
			return nil, err
		}
		idx, err := in.eval(ex.idx, e)
		if err != nil {
			return nil, err
		}
		return indexVector(obj, idx)
	case *rCall:
		fn, err := in.eval(ex.fn, e)
		if err != nil {
			return nil, err
		}
		var args []Value
		var names []string
		for _, a := range ex.args {
			v, err := in.eval(a.val, e)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
			names = append(names, a.name)
		}
		return in.call(fn, args, names)
	}
	return nil, fmt.Errorf("rlite: unknown expression %T", x)
}

func (in *Interp) call(fn Value, args []Value, names []string) (Value, error) {
	switch f := fn.(type) {
	case Builtin:
		return f(in, args, names)
	case *RFunc:
		in.depth++
		defer func() { in.depth-- }()
		if in.depth > 400 {
			return nil, fmt.Errorf("rlite: evaluation nested too deeply")
		}
		local := &renv{vars: map[string]Value{}, parent: f.closure}
		// Bind named args first, then positional into remaining slots.
		used := make([]bool, len(f.params))
		var positional []Value
		for i, a := range args {
			if names[i] == "" {
				positional = append(positional, a)
				continue
			}
			found := false
			for pi, prm := range f.params {
				if prm.name == names[i] {
					local.vars[prm.name] = a
					used[pi] = true
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("rlite: unused argument %q", names[i])
			}
		}
		ppos := 0
		for pi, prm := range f.params {
			if used[pi] {
				continue
			}
			if ppos < len(positional) {
				local.vars[prm.name] = positional[ppos]
				ppos++
				continue
			}
			if prm.def != nil {
				dv, err := in.eval(prm.def, local)
				if err != nil {
					return nil, err
				}
				local.vars[prm.name] = dv
				continue
			}
			return nil, fmt.Errorf("rlite: argument %q is missing, with no default", prm.name)
		}
		if ppos < len(positional) {
			return nil, fmt.Errorf("rlite: too many arguments")
		}
		v, err := in.eval(f.body, local)
		if r, ok := err.(rReturnErr); ok {
			return r.v, nil
		}
		if err != nil {
			return nil, err
		}
		return v, nil
	}
	return nil, fmt.Errorf("rlite: attempt to apply non-function")
}

func (in *Interp) indexAssign(t *rIndex, v Value, e *renv) (Value, error) {
	name, ok := t.obj.(*rName)
	if !ok {
		return nil, fmt.Errorf("rlite: indexed assignment target must be a variable")
	}
	cur, found := e.lookup(name.name)
	if !found {
		cur = &NumVec{}
	}
	idx, err := in.eval(t.idx, e)
	if err != nil {
		return nil, err
	}
	i, err := scalarInt(idx)
	if err != nil {
		return nil, err
	}
	if i < 1 {
		return nil, fmt.Errorf("rlite: subscript %d out of bounds", i)
	}
	switch c := cur.(type) {
	case *NumVec:
		nv, err := asNum(v)
		if err != nil {
			return nil, err
		}
		if len(nv.V) != 1 {
			return nil, fmt.Errorf("rlite: replacement must be length 1")
		}
		for len(c.V) < i {
			c.V = append(c.V, math.NaN())
		}
		c.V[i-1] = nv.V[0]
		c.Written = true
		e.set(name.name, c)
		return c, nil
	case *StrVec:
		sv, ok := v.(*StrVec)
		if !ok || len(sv.V) != 1 {
			return nil, fmt.Errorf("rlite: replacement must be a length-1 string")
		}
		for len(c.V) < i {
			c.V = append(c.V, "")
		}
		c.V[i-1] = sv.V[0]
		e.set(name.name, c)
		return c, nil
	}
	return nil, fmt.Errorf("rlite: cannot index-assign into %T", cur)
}

// ---- vector semantics ----

func asNum(v Value) (*NumVec, error) {
	switch x := v.(type) {
	case *NumVec:
		return x, nil
	case *BoolVec:
		out := make([]float64, len(x.V))
		for i, b := range x.V {
			if b {
				out[i] = 1
			}
		}
		return &NumVec{V: out}, nil
	}
	return nil, fmt.Errorf("rlite: expected a numeric vector")
}

func asBool(v Value) (*BoolVec, error) {
	switch x := v.(type) {
	case *BoolVec:
		return x, nil
	case *NumVec:
		out := make([]bool, len(x.V))
		for i, f := range x.V {
			out[i] = f != 0
		}
		return &BoolVec{V: out}, nil
	}
	return nil, fmt.Errorf("rlite: expected a logical vector")
}

func scalarBool(v Value) (bool, error) {
	b, err := asBool(v)
	if err != nil {
		return false, err
	}
	if len(b.V) == 0 {
		return false, fmt.Errorf("rlite: argument is of length zero")
	}
	return b.V[0], nil
}

func scalarInt(v Value) (int, error) {
	n, err := asNum(v)
	if err != nil {
		return 0, err
	}
	if len(n.V) != 1 {
		return 0, fmt.Errorf("rlite: expected a single value")
	}
	return int(n.V[0]), nil
}

func vecLen(v Value) int {
	switch x := v.(type) {
	case *NumVec:
		return len(x.V)
	case *StrVec:
		return len(x.V)
	case *BoolVec:
		return len(x.V)
	case Null:
		return 0
	}
	return 1
}

// elements splits a vector into length-1 values for iteration.
func elements(v Value) ([]Value, error) {
	switch x := v.(type) {
	case *NumVec:
		out := make([]Value, len(x.V))
		for i, f := range x.V {
			out[i] = Num(f)
		}
		return out, nil
	case *StrVec:
		out := make([]Value, len(x.V))
		for i, s := range x.V {
			out[i] = Chr(s)
		}
		return out, nil
	case *BoolVec:
		out := make([]Value, len(x.V))
		for i, b := range x.V {
			out[i] = Lgl(b)
		}
		return out, nil
	case Null:
		return nil, nil
	}
	return nil, fmt.Errorf("rlite: cannot iterate this value")
}

// rBinop applies a vectorised binary operator with recycling.
func rBinop(op string, l, r Value) (Value, error) {
	if op == ":" {
		a, err := scalarInt(l)
		if err != nil {
			return nil, err
		}
		b, err := scalarInt(r)
		if err != nil {
			return nil, err
		}
		step, n := 1, b-a
		if a > b {
			step, n = -1, a-b
		}
		if n < 0 || n >= maxSeqLen {
			return nil, fmt.Errorf("rlite: result would be too long a vector")
		}
		out := make([]float64, n+1)
		for i := range out {
			out[i] = float64(a + i*step)
		}
		return &NumVec{V: out}, nil
	}
	// String comparison and paste-like + are handled for character vecs.
	ls, lIsStr := l.(*StrVec)
	rs, rIsStr := r.(*StrVec)
	if lIsStr || rIsStr {
		if !lIsStr || !rIsStr {
			if op == "==" {
				return Lgl(false), nil
			}
			if op == "!=" {
				return Lgl(true), nil
			}
			return nil, fmt.Errorf("rlite: non-character argument to %q", op)
		}
		n := recycleLen(len(ls.V), len(rs.V))
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			a, b := ls.V[i%len(ls.V)], rs.V[i%len(rs.V)]
			switch op {
			case "==":
				out[i] = a == b
			case "!=":
				out[i] = a != b
			case "<":
				out[i] = a < b
			case "<=":
				out[i] = a <= b
			case ">":
				out[i] = a > b
			case ">=":
				out[i] = a >= b
			default:
				return nil, fmt.Errorf("rlite: invalid operator %q for character vectors", op)
			}
		}
		return &BoolVec{V: out}, nil
	}
	switch op {
	case "&", "&&":
		lb, err := asBool(l)
		if err != nil {
			return nil, err
		}
		rb, err := asBool(r)
		if err != nil {
			return nil, err
		}
		if op == "&&" {
			return Lgl(lb.V[0] && rb.V[0]), nil
		}
		n := recycleLen(len(lb.V), len(rb.V))
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = lb.V[i%len(lb.V)] && rb.V[i%len(rb.V)]
		}
		return &BoolVec{V: out}, nil
	case "|", "||":
		lb, err := asBool(l)
		if err != nil {
			return nil, err
		}
		rb, err := asBool(r)
		if err != nil {
			return nil, err
		}
		if op == "||" {
			return Lgl(lb.V[0] || rb.V[0]), nil
		}
		n := recycleLen(len(lb.V), len(rb.V))
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = lb.V[i%len(lb.V)] || rb.V[i%len(rb.V)]
		}
		return &BoolVec{V: out}, nil
	}
	ln, err := asNum(l)
	if err != nil {
		return nil, err
	}
	rn, err := asNum(r)
	if err != nil {
		return nil, err
	}
	if len(ln.V) == 0 || len(rn.V) == 0 {
		return &NumVec{}, nil
	}
	a, b := ln.V, rn.V
	n := recycleLen(len(a), len(b))
	// One loop per operator; ia and ib wrap at their operand's length,
	// which is R's recycling with no per-element divide.
	switch op {
	case "+", "-", "*", "/", "^", "%%", "%/%":
		out := make([]float64, n)
		switch op {
		case "+":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] + b[ib]
			}
		case "-":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] - b[ib]
			}
		case "*":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] * b[ib]
			}
		case "/":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] / b[ib]
			}
		case "^":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = math.Pow(a[ia], b[ib])
			}
		case "%%":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = math.Mod(math.Mod(a[ia], b[ib])+b[ib], b[ib])
			}
		case "%/%":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = math.Floor(a[ia] / b[ib])
			}
		}
		return &NumVec{V: out}, nil
	case "==", "!=", "<", "<=", ">", ">=":
		out := make([]bool, n)
		switch op {
		case "==":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] == b[ib]
			}
		case "!=":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] != b[ib]
			}
		case "<":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] < b[ib]
			}
		case "<=":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] <= b[ib]
			}
		case ">":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] > b[ib]
			}
		case ">=":
			for i, ia, ib := 0, 0, 0; i < n; i, ia, ib = i+1, wrap(ia, a), wrap(ib, b) {
				out[i] = a[ia] >= b[ib]
			}
		}
		return &BoolVec{V: out}, nil
	}
	return nil, fmt.Errorf("rlite: unknown operator %q", op)
}

// maxSeqLen bounds a:b, whose length a and b alone decide: past it the
// count overflows or the vector cannot be allocated.
const maxSeqLen = math.MaxInt32

// wrap is the index after i into v, back to 0 past its end.
func wrap(i int, v []float64) int {
	if i++; i == len(v) {
		return 0
	}
	return i
}

func recycleLen(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// indexVector implements v[i] with 1-based scalar, vector, and logical
// indices.
func indexVector(obj, idx Value) (Value, error) {
	// Logical index: keep elements where TRUE.
	if li, ok := idx.(*BoolVec); ok {
		switch o := obj.(type) {
		case *NumVec:
			var out []float64
			for i, v := range o.V {
				if li.V[i%len(li.V)] {
					out = append(out, v)
				}
			}
			return &NumVec{V: out}, nil
		case *StrVec:
			var out []string
			for i, v := range o.V {
				if li.V[i%len(li.V)] {
					out = append(out, v)
				}
			}
			return &StrVec{V: out}, nil
		}
		return nil, fmt.Errorf("rlite: cannot logically index this value")
	}
	ni, err := asNum(idx)
	if err != nil {
		return nil, err
	}
	pick := func(n int, get func(int) error) error {
		for _, f := range ni.V {
			i := int(f)
			if i < 1 || i > n {
				return fmt.Errorf("rlite: subscript %d out of bounds (length %d)", i, n)
			}
			if err := get(i - 1); err != nil {
				return err
			}
		}
		return nil
	}
	switch o := obj.(type) {
	case *NumVec:
		var out []float64
		if err := pick(len(o.V), func(i int) error { out = append(out, o.V[i]); return nil }); err != nil {
			return nil, err
		}
		return &NumVec{V: out}, nil
	case *StrVec:
		var out []string
		if err := pick(len(o.V), func(i int) error { out = append(out, o.V[i]); return nil }); err != nil {
			return nil, err
		}
		return &StrVec{V: out}, nil
	case *BoolVec:
		var out []bool
		if err := pick(len(o.V), func(i int) error { out = append(out, o.V[i]); return nil }); err != nil {
			return nil, err
		}
		return &BoolVec{V: out}, nil
	}
	return nil, fmt.Errorf("rlite: object is not subsettable")
}

// ---- rendering ----

// fmtNum renders one double the way R's default printing does for
// typical values.
func fmtNum(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', 0, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Deparse renders a value compactly (scalar -> bare value, vector ->
// c(...) style contents space-separated), the form returned to Swift.
func Deparse(v Value) string {
	switch x := v.(type) {
	case Null:
		return "NULL"
	case *NumVec:
		parts := make([]string, len(x.V))
		for i, f := range x.V {
			parts[i] = fmtNum(f)
		}
		return strings.Join(parts, " ")
	case *StrVec:
		return strings.Join(x.V, " ")
	case *BoolVec:
		parts := make([]string, len(x.V))
		for i, b := range x.V {
			if b {
				parts[i] = "TRUE"
			} else {
				parts[i] = "FALSE"
			}
		}
		return strings.Join(parts, " ")
	case *RFunc:
		return "<function>"
	case Builtin:
		return "<builtin>"
	}
	return fmt.Sprintf("%v", v)
}

// ---- builtins ----

var rBuiltins map[string]Value

func need1Num(args []Value) (*NumVec, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("rlite: expected one argument")
	}
	return asNum(args[0])
}

func numericFold(f func([]float64) float64) Builtin {
	return func(in *Interp, args []Value, names []string) (Value, error) {
		var all []float64
		for _, a := range args {
			n, err := asNum(a)
			if err != nil {
				return nil, err
			}
			all = append(all, n.V...)
		}
		if len(all) == 0 {
			return nil, fmt.Errorf("rlite: no data")
		}
		return Num(f(all)), nil
	}
}

func vecMath(f func(float64) float64) Builtin {
	return func(in *Interp, args []Value, names []string) (Value, error) {
		n, err := need1Num(args)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(n.V))
		for i, v := range n.V {
			out[i] = f(v)
		}
		return &NumVec{V: out}, nil
	}
}

func init() {
	rBuiltins = map[string]Value{
		"c": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			// Type promotion: any string -> character; else numeric.
			anyStr := false
			for _, a := range args {
				if _, ok := a.(*StrVec); ok {
					anyStr = true
				}
			}
			if anyStr {
				var out []string
				for _, a := range args {
					switch x := a.(type) {
					case *StrVec:
						out = append(out, x.V...)
					case *NumVec:
						for _, f := range x.V {
							out = append(out, fmtNum(f))
						}
					case *BoolVec:
						for _, b := range x.V {
							if b {
								out = append(out, "TRUE")
							} else {
								out = append(out, "FALSE")
							}
						}
					case Null:
					default:
						return nil, fmt.Errorf("rlite: c(): unsupported element")
					}
				}
				return &StrVec{V: out}, nil
			}
			var out []float64
			for _, a := range args {
				if _, ok := a.(Null); ok {
					continue
				}
				n, err := asNum(a)
				if err != nil {
					return nil, err
				}
				out = append(out, n.V...)
			}
			return &NumVec{V: out}, nil
		}),
		"length": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("rlite: length() takes one argument")
			}
			return Num(float64(vecLen(args[0]))), nil
		}),
		"seq": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			from, to, by := 1.0, 1.0, 0.0
			setFrom, setTo, setBy := false, false, false
			pos := 0
			for i, a := range args {
				n, err := asNum(a)
				if err != nil {
					return nil, err
				}
				if len(n.V) != 1 {
					return nil, fmt.Errorf("rlite: seq() arguments must be scalars")
				}
				v := n.V[0]
				switch names[i] {
				case "from":
					from, setFrom = v, true
				case "to":
					to, setTo = v, true
				case "by":
					by, setBy = v, true
				case "":
					switch pos {
					case 0:
						from, setFrom = v, true
					case 1:
						to, setTo = v, true
					case 2:
						by, setBy = v, true
					}
					pos++
				default:
					return nil, fmt.Errorf("rlite: seq(): unknown argument %q", names[i])
				}
			}
			if !setFrom {
				return nil, fmt.Errorf("rlite: seq() needs 'from'")
			}
			if !setTo {
				to = from
			}
			if !setBy {
				if to >= from {
					by = 1
				} else {
					by = -1
				}
			}
			if by == 0 {
				return nil, fmt.Errorf("rlite: seq() by must be non-zero")
			}
			var out []float64
			if by > 0 {
				for v := from; v <= to+1e-12; v += by {
					out = append(out, v)
				}
			} else {
				for v := from; v >= to-1e-12; v += by {
					out = append(out, v)
				}
			}
			return &NumVec{V: out}, nil
		}),
		"rep": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("rlite: rep() takes two arguments")
			}
			times, err := scalarInt(args[1])
			if err != nil {
				return nil, err
			}
			switch x := args[0].(type) {
			case *NumVec:
				var out []float64
				for i := 0; i < times; i++ {
					out = append(out, x.V...)
				}
				return &NumVec{V: out}, nil
			case *StrVec:
				var out []string
				for i := 0; i < times; i++ {
					out = append(out, x.V...)
				}
				return &StrVec{V: out}, nil
			}
			return nil, fmt.Errorf("rlite: rep(): unsupported type")
		}),
		"rev": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			n, err := need1Num(args)
			if err != nil {
				return nil, err
			}
			out := make([]float64, len(n.V))
			for i, v := range n.V {
				out[len(n.V)-1-i] = v
			}
			return &NumVec{V: out}, nil
		}),
		"sum": numericFold(func(xs []float64) float64 {
			s := 0.0
			for _, x := range xs {
				s += x
			}
			return s
		}),
		"prod": numericFold(func(xs []float64) float64 {
			p := 1.0
			for _, x := range xs {
				p *= x
			}
			return p
		}),
		"mean": numericFold(func(xs []float64) float64 {
			s := 0.0
			for _, x := range xs {
				s += x
			}
			return s / float64(len(xs))
		}),
		"min": numericFold(func(xs []float64) float64 {
			m := xs[0]
			for _, x := range xs[1:] {
				if x < m {
					m = x
				}
			}
			return m
		}),
		"max": numericFold(func(xs []float64) float64 {
			m := xs[0]
			for _, x := range xs[1:] {
				if x > m {
					m = x
				}
			}
			return m
		}),
		"sd": numericFold(func(xs []float64) float64 {
			if len(xs) < 2 {
				return math.NaN()
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
			return math.Sqrt(ss / float64(len(xs)-1))
		}),
		"var": numericFold(func(xs []float64) float64 {
			if len(xs) < 2 {
				return math.NaN()
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
			return ss / float64(len(xs)-1)
		}),
		"median": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			n, err := need1Num(args)
			if err != nil {
				return nil, err
			}
			if len(n.V) == 0 {
				return nil, fmt.Errorf("rlite: median of empty vector")
			}
			xs := append([]float64(nil), n.V...)
			sort.Float64s(xs)
			k := len(xs)
			if k%2 == 1 {
				return Num(xs[k/2]), nil
			}
			return Num((xs[k/2-1] + xs[k/2]) / 2), nil
		}),
		"sort": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			n, err := need1Num(args)
			if err != nil {
				return nil, err
			}
			xs := append([]float64(nil), n.V...)
			sort.Float64s(xs)
			return &NumVec{V: xs}, nil
		}),
		"sqrt":    vecMath(math.Sqrt),
		"abs":     vecMath(math.Abs),
		"exp":     vecMath(math.Exp),
		"log":     vecMath(math.Log),
		"sin":     vecMath(math.Sin),
		"cos":     vecMath(math.Cos),
		"floor":   vecMath(math.Floor),
		"ceiling": vecMath(math.Ceil),
		"round": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) == 0 || len(args) > 2 {
				return nil, fmt.Errorf("rlite: round() takes 1-2 arguments")
			}
			n, err := asNum(args[0])
			if err != nil {
				return nil, err
			}
			digits := 0
			if len(args) == 2 {
				digits, err = scalarInt(args[1])
				if err != nil {
					return nil, err
				}
			}
			p := math.Pow(10, float64(digits))
			out := make([]float64, len(n.V))
			for i, v := range n.V {
				out[i] = math.Round(v*p) / p
			}
			return &NumVec{V: out}, nil
		}),
		"sapply": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("rlite: sapply() takes two arguments")
			}
			items, err := elements(args[0])
			if err != nil {
				return nil, err
			}
			var out []float64
			var outS []string
			isStr := false
			for _, it := range items {
				v, err := in.call(args[1], []Value{it}, []string{""})
				if err != nil {
					return nil, err
				}
				switch r := v.(type) {
				case *NumVec:
					if len(r.V) != 1 {
						return nil, fmt.Errorf("rlite: sapply() function must return scalars")
					}
					out = append(out, r.V[0])
				case *StrVec:
					isStr = true
					outS = append(outS, r.V...)
				case *BoolVec:
					if len(r.V) != 1 {
						return nil, fmt.Errorf("rlite: sapply() function must return scalars")
					}
					if r.V[0] {
						out = append(out, 1)
					} else {
						out = append(out, 0)
					}
				default:
					return nil, fmt.Errorf("rlite: sapply(): unsupported return value")
				}
			}
			if isStr {
				return &StrVec{V: outS}, nil
			}
			return &NumVec{V: out}, nil
		}),
		"which": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("rlite: which() takes one argument")
			}
			b, err := asBool(args[0])
			if err != nil {
				return nil, err
			}
			var out []float64
			for i, v := range b.V {
				if v {
					out = append(out, float64(i+1))
				}
			}
			return &NumVec{V: out}, nil
		}),
		"paste":  Builtin(pasteImpl(" ")),
		"paste0": Builtin(pasteImpl("")),
		"nchar": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("rlite: nchar() takes one argument")
			}
			s, ok := args[0].(*StrVec)
			if !ok {
				return nil, fmt.Errorf("rlite: nchar() needs a character vector")
			}
			out := make([]float64, len(s.V))
			for i, v := range s.V {
				out[i] = float64(len(v))
			}
			return &NumVec{V: out}, nil
		}),
		"toupper": Builtin(strMap(strings.ToUpper)),
		"tolower": Builtin(strMap(strings.ToLower)),
		"as.numeric": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("rlite: as.numeric() takes one argument")
			}
			if s, ok := args[0].(*StrVec); ok {
				out := make([]float64, len(s.V))
				for i, v := range s.V {
					f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
					if err != nil {
						return nil, fmt.Errorf("rlite: NAs introduced by coercion: %q", v)
					}
					out[i] = f
				}
				return &NumVec{V: out}, nil
			}
			return asNum(args[0])
		}),
		"as.character": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("rlite: as.character() takes one argument")
			}
			switch x := args[0].(type) {
			case *StrVec:
				return x, nil
			case *NumVec:
				out := make([]string, len(x.V))
				for i, v := range x.V {
					out[i] = fmtNum(v)
				}
				return &StrVec{V: out}, nil
			case *BoolVec:
				out := make([]string, len(x.V))
				for i, v := range x.V {
					if v {
						out[i] = "TRUE"
					} else {
						out[i] = "FALSE"
					}
				}
				return &StrVec{V: out}, nil
			}
			return nil, fmt.Errorf("rlite: as.character(): unsupported type")
		}),
		"cat": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			var parts []string
			for _, a := range args {
				parts = append(parts, Deparse(a))
			}
			fmt.Fprint(in.Out, strings.Join(parts, " "))
			return Null{}, nil
		}),
		"print": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("rlite: print() takes one argument")
			}
			fmt.Fprintln(in.Out, "[1] "+Deparse(args[0]))
			return args[0], nil
		}),
		"is.null": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("rlite: is.null() takes one argument")
			}
			_, isNull := args[0].(Null)
			return Lgl(isNull), nil
		}),
		"numeric": Builtin(func(in *Interp, args []Value, names []string) (Value, error) {
			n := 0
			if len(args) == 1 {
				var err error
				n, err = scalarInt(args[0])
				if err != nil {
					return nil, err
				}
			}
			return &NumVec{V: make([]float64, n)}, nil
		}),
	}
}

func pasteImpl(sep string) func(*Interp, []Value, []string) (Value, error) {
	return func(in *Interp, args []Value, names []string) (Value, error) {
		useSep := sep
		var vecs []Value
		for i, a := range args {
			if names[i] == "sep" {
				s, ok := a.(*StrVec)
				if !ok || len(s.V) != 1 {
					return nil, fmt.Errorf("rlite: paste(): sep must be a string")
				}
				useSep = s.V[0]
				continue
			}
			vecs = append(vecs, a)
		}
		n := 1
		for _, v := range vecs {
			if l := vecLen(v); l > n {
				n = l
			}
		}
		strsOf := func(v Value) []string {
			switch x := v.(type) {
			case *StrVec:
				return x.V
			case *NumVec:
				out := make([]string, len(x.V))
				for i, f := range x.V {
					out[i] = fmtNum(f)
				}
				return out
			case *BoolVec:
				out := make([]string, len(x.V))
				for i, b := range x.V {
					if b {
						out[i] = "TRUE"
					} else {
						out[i] = "FALSE"
					}
				}
				return out
			}
			return []string{Deparse(v)}
		}
		out := make([]string, n)
		for i := 0; i < n; i++ {
			var parts []string
			for _, v := range vecs {
				ss := strsOf(v)
				if len(ss) == 0 {
					continue
				}
				parts = append(parts, ss[i%len(ss)])
			}
			out[i] = strings.Join(parts, useSep)
		}
		return &StrVec{V: out}, nil
	}
}

func strMap(f func(string) string) func(*Interp, []Value, []string) (Value, error) {
	return func(in *Interp, args []Value, names []string) (Value, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("rlite: expected one argument")
		}
		s, ok := args[0].(*StrVec)
		if !ok {
			return nil, fmt.Errorf("rlite: expected a character vector")
		}
		out := make([]string, len(s.V))
		for i, v := range s.V {
			out[i] = f(v)
		}
		return &StrVec{V: out}, nil
	}
}
