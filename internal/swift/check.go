package swift

import "repro/internal/lang"

// Builtin describes a function built into the language runtime. Variadic
// builtins (printf, trace, strcat) accept any argument types after the
// fixed prefix.
type Builtin struct {
	Name     string
	Ins      []Type
	Variadic bool
	Out      Type // TVoid base means no value
	// Leaf marks builtins that execute as worker leaf tasks (interpreter
	// and shell calls); the rest run engine-side.
	Leaf bool
	// Lang marks leaf builtins synthesized from the embedded-language
	// registry; the compiler emits them as turbine::leaf, a typed leaf
	// record (operands only, no rendered blob values).
	Lang bool
	// OutDynamic marks a context-typed result: the assignment target
	// chooses among string/int/float/blob, defaulting to Out (string)
	// when unconstrained. See Checker.checkExprAs.
	OutDynamic bool
	// InNumeric restricts "any"-typed (TInvalid) parameters to int or
	// float bases — the element constraint of the container<->vector
	// bridge (vpack) and any future bulk-numeric builtin.
	InNumeric bool
}

// Builtins is the registry of language builtins available to programs.
var Builtins = map[string]*Builtin{
	"printf":   {Name: "printf", Ins: []Type{{Base: TString}}, Variadic: true, Out: Type{Base: TVoid}},
	"trace":    {Name: "trace", Ins: nil, Variadic: true, Out: Type{Base: TVoid}},
	"strcat":   {Name: "strcat", Ins: nil, Variadic: true, Out: Type{Base: TString}},
	"toString": {Name: "toString", Ins: []Type{{Base: TInvalid}}, Out: Type{Base: TString}},
	"fromInt":  {Name: "fromInt", Ins: []Type{{Base: TInt}}, Out: Type{Base: TString}},
	"toInt":    {Name: "toInt", Ins: []Type{{Base: TString}}, Out: Type{Base: TInt}},
	"toFloat":  {Name: "toFloat", Ins: []Type{{Base: TString}}, Out: Type{Base: TFloat}},
	"itof":     {Name: "itof", Ins: []Type{{Base: TInt}}, Out: Type{Base: TFloat}},
	"ftoi":     {Name: "ftoi", Ins: []Type{{Base: TFloat}}, Out: Type{Base: TInt}},
	"strlen":   {Name: "strlen", Ins: []Type{{Base: TString}}, Out: Type{Base: TInt}},
	"sqrt":     {Name: "sqrt", Ins: []Type{{Base: TFloat}}, Out: Type{Base: TFloat}},
	"floor":    {Name: "floor", Ins: []Type{{Base: TFloat}}, Out: Type{Base: TFloat}},
	"ceil":     {Name: "ceil", Ins: []Type{{Base: TFloat}}, Out: Type{Base: TFloat}},
	"round":    {Name: "round", Ins: []Type{{Base: TFloat}}, Out: Type{Base: TFloat}},
	"abs":      {Name: "abs", Ins: []Type{{Base: TFloat}}, Out: Type{Base: TFloat}},
	"size":     {Name: "size", Ins: []Type{{Base: TInvalid, Array: true}}, Out: Type{Base: TInt}},
	// join_array renders a closed array's elements separated by sep —
	// the paper's §IV future-work item of translating complex data
	// types across languages (feeds Python/R vector literals).
	"join_array": {Name: "join_array", Ins: []Type{{Base: TInvalid, Array: true}, {Base: TString}}, Out: Type{Base: TString}},
	// Blob interchange builtins (paper §III-B, blobutils).
	"blob_from_string": {Name: "blob_from_string", Ins: []Type{{Base: TString}}, Out: Type{Base: TBlob}, Leaf: true},
	"string_from_blob": {Name: "string_from_blob", Ins: []Type{{Base: TBlob}}, Out: Type{Base: TString}, Leaf: true},
	"blob_size":        {Name: "blob_size", Ins: []Type{{Base: TBlob}}, Out: Type{Base: TInt}, Leaf: true},
	// Container<->vector bridge on the typed plane: vpack gathers a
	// closed numeric array into one blob vector (dims recorded, element
	// data never rendered); vunpack scatters a blob back into an array.
	// vunpack's element type follows the assignment context (`int A[] =
	// vunpack(b)` types as int[]), defaulting to float[].
	"vpack":   {Name: "vpack", Ins: []Type{{Base: TInvalid, Array: true}}, InNumeric: true, Out: Type{Base: TBlob}},
	"vunpack": {Name: "vunpack", Ins: []Type{{Base: TBlob}}, Out: Type{Base: TFloat, Array: true}, OutDynamic: true},
}

// LookupBuiltin resolves a builtin by name: the static table above, or an
// interlanguage leaf builtin synthesized from the embedded-language
// registry (paper §III-C: name(code, expr, args...) evaluates a fragment
// in the embedded interpreter with the extra arguments — string, int,
// float, or blob — pre-bound as argv1..argvN, and returns the result
// expression typed). Deriving the signature from internal/lang means a
// newly registered language is immediately callable from Swift with no
// checker edits.
func LookupBuiltin(name string) *Builtin {
	if b, ok := Builtins[name]; ok {
		return b
	}
	if reg, ok := lang.Lookup(name); ok {
		ins := make([]Type, reg.Sig.Fixed)
		for i := range ins {
			ins[i] = Type{Base: TString}
		}
		out := Type{Base: TString}
		dynamic := false
		switch reg.Sig.Result {
		case lang.ResultInt:
			out = Type{Base: TInt}
		case lang.ResultFloat:
			out = Type{Base: TFloat}
		case lang.ResultBlob:
			out = Type{Base: TBlob}
		case lang.ResultDynamic:
			dynamic = true
		}
		return &Builtin{Name: name, Ins: ins, Variadic: reg.Sig.Variadic,
			Out: out, OutDynamic: dynamic, Leaf: true, Lang: true}
	}
	return nil
}

// scope is one lexical scope of variable declarations.
type scope struct {
	vars   map[string]Type
	parent *scope
}

func (s *scope) lookup(name string) (Type, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if t, ok := cur.vars[name]; ok {
			return t, true
		}
	}
	return Type{}, false
}

func (s *scope) declare(name string, t Type) bool {
	if _, exists := s.vars[name]; exists {
		return false
	}
	s.vars[name] = t
	return true
}

// Checker validates a program and records inferred expression types for
// the compiler.
type Checker struct {
	prog  *Program
	Types map[Expr]Type // inferred type of every checked expression
}

// Check type-checks a parsed program.
func Check(prog *Program) (*Checker, error) {
	c := &Checker{prog: prog, Types: make(map[Expr]Type)}
	// Function names must be unique and not collide with builtins.
	seen := map[string]bool{}
	for _, f := range prog.Funcs {
		if LookupBuiltin(f.Name) != nil {
			return nil, Errorf(f.Tok.Pos(), "function %q collides with a builtin", f.Name)
		}
		if seen[f.Name] {
			return nil, Errorf(f.Tok.Pos(), "function %q defined twice", f.Name)
		}
		seen[f.Name] = true
	}
	for _, f := range prog.Funcs {
		if err := c.checkFunc(f); err != nil {
			return nil, err
		}
	}
	global := &scope{vars: map[string]Type{}}
	if err := c.checkStmts(prog.Main, global); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Checker) checkFunc(f *FuncDef) error {
	sc := &scope{vars: map[string]Type{}}
	for _, p := range f.Ins {
		if !sc.declare(p.Name, p.Type) {
			return Errorf(f.Tok.Pos(), "duplicate parameter %q in %q", p.Name, f.Name)
		}
	}
	for _, p := range f.Outs {
		if !sc.declare(p.Name, p.Type) {
			return Errorf(f.Tok.Pos(), "duplicate parameter %q in %q", p.Name, f.Name)
		}
	}
	switch f.Kind {
	case FuncComposite:
		return c.checkStmts(f.Body, sc)
	case FuncTclTemplate:
		if f.Template == "" {
			return Errorf(f.Tok.Pos(), "empty Tcl template in %q", f.Name)
		}
		for _, p := range append(append([]Param{}, f.Ins...), f.Outs...) {
			if p.Type.Array {
				return Errorf(f.Tok.Pos(), "Tcl template function %q: array parameters are not supported; pass a blob", f.Name)
			}
		}
		return nil
	case FuncApp:
		for _, w := range f.AppWords {
			if id, ok := w.(*Ident); ok {
				if _, found := sc.lookup(id.Name); !found {
					return Errorf(id.Tok.Pos(), "app %q references unknown parameter %q", f.Name, id.Name)
				}
			}
		}
		return nil
	}
	return Errorf(f.Tok.Pos(), "unknown function kind")
}

func (c *Checker) checkStmts(stmts []Stmt, sc *scope) error {
	for _, s := range stmts {
		if err := c.checkStmt(s, sc); err != nil {
			return err
		}
	}
	return nil
}

func (c *Checker) checkStmt(s Stmt, sc *scope) error {
	switch st := s.(type) {
	case *Decl:
		if st.Init != nil {
			it, err := c.checkExprAs(st.Init, sc, st.Type)
			if err != nil {
				return err
			}
			if !assignable(st.Type, it) {
				return Errorf(st.Pos(), "cannot initialise %s %q from %s", st.Type, st.Name, it)
			}
		}
		if !sc.declare(st.Name, st.Type) {
			return Errorf(st.Pos(), "variable %q already declared in this scope", st.Name)
		}
		return nil
	case *Assign:
		lt, ok := sc.lookup(st.LName)
		if !ok {
			return Errorf(st.Pos(), "assignment to undeclared variable %q", st.LName)
		}
		if st.LSub != nil {
			if !lt.Array {
				return Errorf(st.Pos(), "%q is not an array", st.LName)
			}
			subT, err := c.checkExpr(st.LSub, sc)
			if err != nil {
				return err
			}
			if !subT.Equals(Type{Base: TInt}) {
				return Errorf(st.Pos(), "array subscript must be int, got %s", subT)
			}
			lt = Type{Base: lt.Base}
		}
		rt, err := c.checkExprAs(st.RHS, sc, lt)
		if err != nil {
			return err
		}
		if !assignable(lt, rt) {
			return Errorf(st.Pos(), "cannot assign %s to %s %q", rt, lt, st.LName)
		}
		return nil
	case *CallStmt:
		_, err := c.checkCall(st.Call, sc, true)
		return err
	case *If:
		ct, err := c.checkExpr(st.Cond, sc)
		if err != nil {
			return err
		}
		if !ct.Equals(Type{Base: TBoolean}) && !ct.Equals(Type{Base: TInt}) {
			return Errorf(st.Pos(), "if condition must be boolean or int, got %s", ct)
		}
		thenScope := &scope{vars: map[string]Type{}, parent: sc}
		if err := c.checkStmts(st.Then, thenScope); err != nil {
			return err
		}
		if st.Else != nil {
			elseScope := &scope{vars: map[string]Type{}, parent: sc}
			return c.checkStmts(st.Else, elseScope)
		}
		return nil
	case *Foreach:
		seqT, err := c.checkExpr(st.Seq, sc)
		if err != nil {
			return err
		}
		var elemT Type
		switch {
		case seqT.Array:
			elemT = Type{Base: seqT.Base}
		default:
			return Errorf(st.Pos(), "foreach requires an array or range, got %s", seqT)
		}
		body := &scope{vars: map[string]Type{}, parent: sc}
		body.declare(st.Var, elemT)
		if st.IdxVar != "" {
			if !body.declare(st.IdxVar, Type{Base: TInt}) {
				return Errorf(st.Pos(), "duplicate loop variable %q", st.IdxVar)
			}
		}
		return c.checkStmts(st.Body, body)
	}
	return Errorf(s.Pos(), "unknown statement kind %T", s)
}

func assignable(dst, src Type) bool {
	if dst.Equals(src) {
		return true
	}
	// int promotes to float.
	if dst.Base == TFloat && src.Base == TInt && dst.Array == src.Array {
		return true
	}
	return false
}

func (c *Checker) checkExpr(e Expr, sc *scope) (Type, error) {
	t, err := c.inferExpr(e, sc)
	if err != nil {
		return Type{}, err
	}
	c.Types[e] = t
	return t, nil
}

// checkExprAs type-checks e in a context expecting the given type. For
// builtins with a dynamic result the destination chooses the result type:
// interlanguage calls (python(...), r(...)) type as the scalar the
// assignment demands (`blob v = python(...)` as blob, `float f = ...` as
// float), and vunpack types as the numeric array the assignment demands
// (`int A[] = vunpack(b)` as int[]). Array-dynamic builtins only follow
// numeric array contexts; anything else falls back to inference (and its
// default result type), so `string A[] = vunpack(b)` fails with an
// ordinary assignability error. All other expressions infer their own
// type as usual.
func (c *Checker) checkExprAs(e Expr, sc *scope, want Type) (Type, error) {
	if call, ok := e.(*Call); ok && want.Base != TVoid && want.Base != TInvalid {
		if b := LookupBuiltin(call.Name); b != nil && b.OutDynamic && want.Array == b.Out.Array &&
			(!want.Array || want.Base == TInt || want.Base == TFloat) {
			if err := c.checkBuiltinArgs(call, b, sc); err != nil {
				return Type{}, err
			}
			c.Types[e] = want
			return want, nil
		}
	}
	return c.checkExpr(e, sc)
}

func (c *Checker) inferExpr(e Expr, sc *scope) (Type, error) {
	switch ex := e.(type) {
	case *IntLit:
		return Type{Base: TInt}, nil
	case *FloatLit:
		return Type{Base: TFloat}, nil
	case *StringLit:
		return Type{Base: TString}, nil
	case *BoolLit:
		return Type{Base: TBoolean}, nil
	case *Ident:
		t, ok := sc.lookup(ex.Name)
		if !ok {
			return Type{}, Errorf(ex.Pos(), "undeclared variable %q", ex.Name)
		}
		return t, nil
	case *Unary:
		xt, err := c.checkExpr(ex.X, sc)
		if err != nil {
			return Type{}, err
		}
		switch ex.Op {
		case "-":
			if xt.Base != TInt && xt.Base != TFloat || xt.Array {
				return Type{}, Errorf(ex.Pos(), "unary - needs numeric operand, got %s", xt)
			}
			return xt, nil
		case "!":
			if !xt.Equals(Type{Base: TBoolean}) {
				return Type{}, Errorf(ex.Pos(), "! needs boolean operand, got %s", xt)
			}
			return xt, nil
		}
		return Type{}, Errorf(ex.Pos(), "unknown unary operator %q", ex.Op)
	case *Binary:
		lt, err := c.checkExpr(ex.L, sc)
		if err != nil {
			return Type{}, err
		}
		rt, err := c.checkExpr(ex.R, sc)
		if err != nil {
			return Type{}, err
		}
		if lt.Array || rt.Array {
			return Type{}, Errorf(ex.Pos(), "operator %q does not apply to arrays", ex.Op)
		}
		switch ex.Op {
		case "+", "-", "*", "/", "%":
			if ex.Op == "+" && lt.Base == TString && rt.Base == TString {
				return Type{Base: TString}, nil
			}
			if !numeric(lt) || !numeric(rt) {
				return Type{}, Errorf(ex.Pos(), "operator %q needs numeric operands, got %s and %s", ex.Op, lt, rt)
			}
			if ex.Op == "%" {
				if lt.Base != TInt || rt.Base != TInt {
					return Type{}, Errorf(ex.Pos(), "%% needs int operands")
				}
				return Type{Base: TInt}, nil
			}
			if lt.Base == TFloat || rt.Base == TFloat {
				return Type{Base: TFloat}, nil
			}
			// Swift's / on ints yields int division here (documented).
			return Type{Base: TInt}, nil
		case "==", "!=":
			if lt.Base != rt.Base && !(numeric(lt) && numeric(rt)) {
				return Type{}, Errorf(ex.Pos(), "cannot compare %s with %s", lt, rt)
			}
			return Type{Base: TBoolean}, nil
		case "<", "<=", ">", ">=":
			if !(numeric(lt) && numeric(rt)) && !(lt.Base == TString && rt.Base == TString) {
				return Type{}, Errorf(ex.Pos(), "cannot order %s with %s", lt, rt)
			}
			return Type{Base: TBoolean}, nil
		case "&&", "||":
			if lt.Base != TBoolean || rt.Base != TBoolean {
				return Type{}, Errorf(ex.Pos(), "%q needs boolean operands", ex.Op)
			}
			return Type{Base: TBoolean}, nil
		}
		return Type{}, Errorf(ex.Pos(), "unknown operator %q", ex.Op)
	case *Call:
		return c.checkCall(ex, sc, false)
	case *Index:
		at, err := c.checkExpr(ex.Arr, sc)
		if err != nil {
			return Type{}, err
		}
		if !at.Array {
			return Type{}, Errorf(ex.Pos(), "cannot index non-array %s", at)
		}
		st, err := c.checkExpr(ex.Sub, sc)
		if err != nil {
			return Type{}, err
		}
		if !st.Equals(Type{Base: TInt}) {
			return Type{}, Errorf(ex.Pos(), "array subscript must be int, got %s", st)
		}
		return Type{Base: at.Base}, nil
	case *ArrayLit:
		if len(ex.Elems) == 0 {
			return Type{}, Errorf(ex.Pos(), "cannot infer type of empty array literal")
		}
		first, err := c.checkExpr(ex.Elems[0], sc)
		if err != nil {
			return Type{}, err
		}
		if first.Array {
			return Type{}, Errorf(ex.Pos(), "nested arrays are not supported")
		}
		elemBase := first.Base
		for _, el := range ex.Elems[1:] {
			t, err := c.checkExpr(el, sc)
			if err != nil {
				return Type{}, err
			}
			if t.Base == TFloat && elemBase == TInt {
				elemBase = TFloat
				continue
			}
			if t.Base != elemBase && !(t.Base == TInt && elemBase == TFloat) {
				return Type{}, Errorf(el.Pos(), "array literal mixes %s and %s", elemBase, t.Base)
			}
		}
		return Type{Base: elemBase, Array: true}, nil
	case *RangeLit:
		for _, part := range []Expr{ex.Lo, ex.Hi, ex.Step} {
			if part == nil {
				continue
			}
			t, err := c.checkExpr(part, sc)
			if err != nil {
				return Type{}, err
			}
			if !t.Equals(Type{Base: TInt}) {
				return Type{}, Errorf(part.Pos(), "range bounds must be int, got %s", t)
			}
		}
		return Type{Base: TInt, Array: true}, nil
	}
	return Type{}, Errorf(e.Pos(), "unknown expression kind %T", e)
}

func numeric(t Type) bool {
	return !t.Array && (t.Base == TInt || t.Base == TFloat)
}

// checkCall validates a call. In statement position (stmt=true) functions
// with zero or one output are allowed; in expression position exactly one
// output is required.
func (c *Checker) checkCall(call *Call, sc *scope, stmt bool) (Type, error) {
	if b := LookupBuiltin(call.Name); b != nil {
		if err := c.checkBuiltinArgs(call, b, sc); err != nil {
			return Type{}, err
		}
		if !stmt && b.Out.Base == TVoid {
			return Type{}, Errorf(call.Pos(), "builtin %q produces no value", call.Name)
		}
		c.Types[call] = b.Out
		return b.Out, nil
	}
	f := c.prog.FindFunc(call.Name)
	if f == nil {
		return Type{}, Errorf(call.Pos(), "call to undefined function %q", call.Name)
	}
	if len(call.Args) != len(f.Ins) {
		return Type{}, Errorf(call.Pos(), "%q takes %d argument(s), got %d", call.Name, len(f.Ins), len(call.Args))
	}
	for i, a := range call.Args {
		at, err := c.checkExprAs(a, sc, f.Ins[i].Type)
		if err != nil {
			return Type{}, err
		}
		if !assignable(f.Ins[i].Type, at) {
			return Type{}, Errorf(a.Pos(), "%q argument %d: cannot pass %s as %s", call.Name, i+1, at, f.Ins[i].Type)
		}
	}
	switch {
	case len(f.Outs) == 0:
		if !stmt {
			return Type{}, Errorf(call.Pos(), "%q produces no value", call.Name)
		}
		c.Types[call] = Type{Base: TVoid}
		return Type{Base: TVoid}, nil
	case len(f.Outs) == 1:
		c.Types[call] = f.Outs[0].Type
		return f.Outs[0].Type, nil
	default:
		return Type{}, Errorf(call.Pos(), "%q has %d outputs; multi-output calls are not supported in expression position", call.Name, len(f.Outs))
	}
}

func (c *Checker) checkBuiltinArgs(call *Call, b *Builtin, sc *scope) error {
	if b.Variadic {
		if len(call.Args) < len(b.Ins) {
			return Errorf(call.Pos(), "builtin %q needs at least %d argument(s)", b.Name, len(b.Ins))
		}
	} else if len(call.Args) != len(b.Ins) {
		return Errorf(call.Pos(), "builtin %q takes %d argument(s), got %d", b.Name, len(b.Ins), len(call.Args))
	}
	for i, a := range call.Args {
		var at Type
		var err error
		if i < len(b.Ins) && b.Ins[i].Base != TInvalid {
			// Typed fixed parameter: give nested dynamic interlanguage
			// calls the context (blob_size(python(...)) types as blob),
			// like the user-function argument path.
			at, err = c.checkExprAs(a, sc, b.Ins[i])
		} else {
			at, err = c.checkExpr(a, sc)
		}
		if err != nil {
			return err
		}
		if i < len(b.Ins) {
			want := b.Ins[i]
			if want.Base == TInvalid {
				// "any" parameter (toString, size's element type).
				if want.Array && !at.Array {
					return Errorf(a.Pos(), "builtin %q argument %d must be an array", b.Name, i+1)
				}
				if b.InNumeric && at.Base != TInt && at.Base != TFloat {
					return Errorf(a.Pos(), "builtin %q needs an int or float array, got %s", b.Name, at)
				}
				continue
			}
			if !assignable(want, at) {
				return Errorf(a.Pos(), "builtin %q argument %d: cannot pass %s as %s", b.Name, i+1, at, want)
			}
		} else if at.Array {
			return Errorf(a.Pos(), "builtin %q: array variadic arguments are not supported", b.Name)
		}
	}
	return nil
}
