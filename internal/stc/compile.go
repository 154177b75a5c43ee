package stc

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/lang"
	"repro/internal/swift"
	"repro/internal/tcl"
)

// Output is a compiled program: Turbine code to load on every rank plus
// the seed fragment for engine rank 0.
type Output struct {
	Program string // prelude + generated procs
	Main    string // seed invocation, e.g. "u:main"

	scriptOnce sync.Once
	script     *tcl.Script
	scriptErr  error
}

// Script returns the parsed form of Program, compiled exactly once per
// Output and shared by every rank's interpreter (and every repeated run
// of the same compiled program). Without this, each of N ranks re-parses
// the ~250-line prelude plus all generated procs at startup.
func (o *Output) Script() (*tcl.Script, error) {
	o.scriptOnce.Do(func() {
		o.script, o.scriptErr = tcl.CompileScript(o.Program)
	})
	return o.script, o.scriptErr
}

// Compile parses, type-checks, and compiles Swift source to Turbine code.
func Compile(src string) (*Output, error) {
	prog, err := swift.Parse(src)
	if err != nil {
		return nil, err
	}
	ck, err := swift.Check(prog)
	if err != nil {
		return nil, err
	}
	return CompileChecked(prog, ck)
}

// CompileChecked compiles an already-checked program.
func CompileChecked(prog *swift.Program, ck *swift.Checker) (*Output, error) {
	c := &compiler{prog: prog, ck: ck}
	var out strings.Builder
	out.WriteString(Prelude)

	// package requires for Tcl-template functions (paper §III-A: the
	// package is loaded on the assumption the proc is found there).
	pkgs := map[string]bool{}
	for _, f := range prog.Funcs {
		if f.Kind == swift.FuncTclTemplate && f.Package != "" && !pkgs[f.Package] {
			pkgs[f.Package] = true
			fmt.Fprintf(&out, "catch {package require %s}\n", f.Package)
		}
	}

	for _, f := range prog.Funcs {
		body, err := c.compileFunc(f)
		if err != nil {
			return nil, err
		}
		out.WriteString(body)
	}
	mainBody, err := c.compileProc("u:main", nil, prog.Main)
	if err != nil {
		return nil, err
	}
	out.WriteString(mainBody)
	for _, p := range c.extraProcs {
		out.WriteString(p)
	}
	return &Output{Program: out.String(), Main: "u:main"}, nil
}

type compiler struct {
	prog       *swift.Program
	ck         *swift.Checker
	counter    int
	extraProcs []string // procs generated for loop bodies and branches
}

func (c *compiler) gensym(prefix string) string {
	c.counter++
	return fmt.Sprintf("%s%d", prefix, c.counter)
}

// genScope tracks Swift variable -> genVar bindings during code
// generation.
type genScope struct {
	parent *genScope
	vars   map[string]genVar
}

// genVar is how generated code refers to a Swift variable: ref is a Tcl
// variable reference holding the id of the variable's TD or — byValue,
// for loop variables the engine hands the body as plain integers — the
// value itself.
type genVar struct {
	ref     string // e.g. "$v_x"
	typ     swift.Type
	byValue bool
}

func (s *genScope) lookup(name string) (genVar, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return genVar{}, false
}

// operand is what an expression compiles to: a TD, or a value known
// without one — a literal, a negated numeric literal, a by-value loop
// variable. A known value rides the action text of whatever consumes it
// as a typed immediate (lang.DecodeOperand) and becomes a TD only where
// one is required (see asTD). This is the seed of the ROADMAP's IR: the
// known-value half of its lattice, without use counts.
type operand struct {
	typ  string // turbine type name
	td   string // Tcl reference to the TD's id, e.g. "$t3"; "" when known
	val  string // known: Tcl source of the value (`5`, `{a b}`, `$v_i`)
	word string // known: Tcl source of its immediate word (`i:5`, `{s:a b}`, `i:$v_i`)
}

var immTags = map[string]string{"integer": lang.ImmInt, "float": lang.ImmFloat, "string": lang.ImmString}

// knownLit is a compile-time constant given as its exact value text.
func knownLit(typ, text string) operand {
	return operand{typ: typ, val: tcl.ListElement(text), word: tcl.ListElement(immTags[typ] + text)}
}

// knownVar is a value held in a Tcl variable of the generated proc.
func knownVar(typ, ref string) operand {
	return operand{typ: typ, val: ref, word: immTags[typ] + ref}
}

func (o operand) known() bool { return o.td == "" }

// arg is the Tcl source of the operand as an action argument word.
func (o operand) arg() string {
	if o.known() {
		return o.word
	}
	return o.td
}

// emitter accumulates the body of one generated proc.
type emitter struct {
	b      strings.Builder
	indent string
	lits   map[string]string // immediate word -> Tcl ref of the TD minted for it
}

func newEmitter() *emitter { return &emitter{indent: "    ", lits: map[string]string{}} }

func (e *emitter) linef(format string, args ...any) {
	e.b.WriteString(e.indent)
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

// tclList is the Tcl source of a list built at run time from the given
// word sources; list quotes each element, so no value, however hostile,
// changes how an action parses.
func tclList(words ...string) string {
	if len(words) == 0 {
		return "[list]"
	}
	return "[list " + strings.Join(words, " ") + "]"
}

// rule emits a dataflow rule for the action made of the given word
// sources. It waits on the TDs among deps — known operands are already
// in the action — so with none it is released at once. opts is appended
// verbatim (" type work" sends the action to a worker).
func (e *emitter) rule(deps []operand, opts string, action ...string) {
	var tds []string
	for _, d := range deps {
		if !d.known() {
			tds = append(tds, d.td)
		}
	}
	e.linef("turbine::rule %s %s%s", tclList(tds...), tclList(action...), opts)
}

// argWords lists the operands as action argument words.
func argWords(ops []operand) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = o.arg()
	}
	return out
}

func typesOf(ops []operand) string {
	ts := make([]string, len(ops))
	for i, o := range ops {
		ts[i] = o.typ
	}
	return "{" + strings.Join(ts, " ") + "}"
}

// tdType maps a Swift type to its ADLB/turbine type name. Booleans are
// carried as integers; arrays are containers.
func tdType(t swift.Type) string {
	if t.Array {
		return "container"
	}
	switch t.Base {
	case swift.TInt, swift.TBoolean:
		return "integer"
	case swift.TFloat:
		return "float"
	case swift.TString:
		return "string"
	case swift.TBlob:
		return "blob"
	case swift.TVoid:
		return "void"
	}
	return "invalid"
}

// compileFunc emits the proc(s) for one function definition.
func (c *compiler) compileFunc(f *swift.FuncDef) (string, error) {
	switch f.Kind {
	case swift.FuncComposite:
		var params []swift.Param
		params = append(params, f.Outs...)
		params = append(params, f.Ins...)
		return c.compileProc("u:"+f.Name, params, f.Body)
	case swift.FuncTclTemplate:
		return c.compileTemplateFunc(f)
	case swift.FuncApp:
		return c.compileAppFunc(f)
	}
	return "", swift.Errorf(f.Tok.Pos(), "unknown function kind")
}

// compileProc generates one engine-side proc from a statement list.
// Parameters are TD ids bound to v_<name> locals.
func (c *compiler) compileProc(name string, params []swift.Param, body []swift.Stmt) (string, error) {
	sc := &genScope{vars: map[string]genVar{}}
	var names []string
	for _, p := range params {
		names = append(names, "v_"+p.Name)
		sc.vars[p.Name] = genVar{ref: "$v_" + p.Name, typ: p.Type}
	}
	e := newEmitter()
	if err := c.compileStmts(e, sc, body); err != nil {
		return "", err
	}
	return fmt.Sprintf("proc %s {%s} {\n%s}\n", name, strings.Join(names, " "), e.b.String()), nil
}

// compileStmts compiles a block, closing uninitialised arrays declared in
// it at the end (dropping the creation write reference once every writer
// in the block has registered its own references).
func (c *compiler) compileStmts(e *emitter, sc *genScope, stmts []swift.Stmt) error {
	var openArrays []string
	for _, s := range stmts {
		refs, err := c.compileStmt(e, sc, s)
		if err != nil {
			return err
		}
		openArrays = append(openArrays, refs...)
	}
	for _, ref := range openArrays {
		e.linef("turbine::write_refcount %s -1", ref)
	}
	return nil
}

// compileStmt compiles one statement. It returns Tcl refs of arrays whose
// creation reference must be dropped at block end.
func (c *compiler) compileStmt(e *emitter, sc *genScope, s swift.Stmt) ([]string, error) {
	switch st := s.(type) {
	case *swift.Decl:
		tv := "t_" + st.Name + "_" + c.gensym("d")
		typ := tdType(st.Type)
		e.linef("set %s [turbine::allocate %s]", tv, typ)
		ref := "$" + tv
		sc.vars[st.Name] = genVar{ref: ref, typ: st.Type}
		if st.Init == nil {
			if st.Type.Array {
				return []string{ref}, nil // close at block end
			}
			return nil, nil
		}
		if err := c.compileInto(e, sc, ref, st.Type, st.Init); err != nil {
			return nil, err
		}
		return nil, nil

	case *swift.Assign:
		v, ok := sc.lookup(st.LName)
		if !ok {
			return nil, swift.Errorf(st.Pos(), "internal: unbound variable %q", st.LName)
		}
		if v.byValue {
			return nil, swift.Errorf(st.Pos(), "cannot assign to loop variable %q", st.LName)
		}
		if st.LSub == nil {
			return nil, c.compileInto(e, sc, v.ref, v.typ, st.RHS)
		}
		// a[sub] = rhs
		sub, err := c.compileExpr(e, sc, st.LSub)
		if err != nil {
			return nil, err
		}
		elem, err := c.compileExprAs(e, sc, swift.Type{Base: v.typ.Base}, st.RHS)
		if err != nil {
			return nil, err
		}
		member := c.asTD(e, elem)
		if sub.known() {
			// Inserted while the block that holds a write reference on the
			// array (its declaring block, or the loop or branch that was
			// handed one) is still being evaluated: no reference of its own.
			e.linef("turbine::container_insert %s %s %s", v.ref, sub.val, member)
			return nil, nil
		}
		e.linef("turbine::write_refcount %s 1", v.ref)
		e.rule([]operand{sub}, "", "sw:ainsert", v.ref, sub.td, member)
		return nil, nil

	case *swift.CallStmt:
		return nil, c.compileCallStmt(e, sc, st.Call)

	case *swift.If:
		return nil, c.compileIf(e, sc, st)

	case *swift.Foreach:
		return nil, c.compileForeach(e, sc, st)
	}
	return nil, swift.Errorf(s.Pos(), "internal: unknown statement %T", s)
}

// compileExpr compiles an expression to an operand of its own type.
func (c *compiler) compileExpr(e *emitter, sc *genScope, ex swift.Expr) (operand, error) {
	return c.compileExprAs(e, sc, c.ck.Types[ex], ex)
}

// known returns ex as a known value of the wanted type, if it is one:
// a literal, a negated numeric literal, or a by-value loop variable.
// Int->float promotion happens here, in the text: `3` wanted as a float
// is the float literal 3.0, and a promoted index parses as a float.
func (c *compiler) known(sc *genScope, want swift.Type, ex swift.Expr) (operand, bool) {
	typ := tdType(want)
	neg := ""
	if u, ok := ex.(*swift.Unary); ok && u.Op == "-" {
		switch u.X.(type) {
		case *swift.IntLit, *swift.FloatLit:
			neg, ex = "-", u.X
		}
	}
	switch x := ex.(type) {
	case *swift.Ident:
		if v, ok := sc.lookup(x.Name); ok && v.byValue {
			return knownVar(typ, v.ref), true
		}
	case *swift.IntLit:
		text := neg + strconv.FormatInt(x.Value, 10)
		if typ == "float" {
			text += ".0"
		}
		return knownLit(typ, text), true
	case *swift.FloatLit:
		return knownLit(typ, neg+lang.Float(x.Value).Render()), true
	case *swift.StringLit:
		return knownLit(typ, x.Value), true
	case *swift.BoolLit:
		if x.Value {
			return knownLit(typ, "1"), true
		}
		return knownLit(typ, "0"), true
	}
	return operand{}, false
}

// compileExprAs compiles an expression to an operand of the given type
// (handling int->float promotion at the storage level).
func (c *compiler) compileExprAs(e *emitter, sc *genScope, want swift.Type, ex swift.Expr) (operand, error) {
	if k, ok := c.known(sc, want, ex); ok {
		return k, nil
	}
	typ := tdType(want)
	if x, ok := ex.(*swift.Ident); ok {
		v, ok := sc.lookup(x.Name)
		if !ok {
			return operand{}, swift.Errorf(x.Pos(), "internal: unbound variable %q", x.Name)
		}
		if tdType(v.typ) == typ {
			return operand{typ: typ, td: v.ref}, nil
		}
		// Otherwise a promotion copy (int var in a float context): below.
	}
	t := c.gensym("t")
	e.linef("set %s [turbine::allocate %s]", t, typ)
	if err := c.compileInto(e, sc, "$"+t, want, ex); err != nil {
		return operand{}, err
	}
	return operand{typ: typ, td: "$" + t}, nil
}

// asTD returns the Tcl reference of a TD holding the operand, which is
// what a container member and a composite function's argument must be.
// A known value is minted as a literal TD, once per generated proc body
// however often it is needed there.
func (c *compiler) asTD(e *emitter, op operand) string {
	if !op.known() {
		return op.td
	}
	if ref, ok := e.lits[op.word]; ok {
		return ref
	}
	t := c.gensym("t")
	e.linef("set %s [turbine::literal_%s %s]", t, op.typ, op.val)
	e.lits[op.word] = "$" + t
	return "$" + t
}

// compileOperands compiles each expression to an operand of its own type.
func (c *compiler) compileOperands(e *emitter, sc *genScope, exprs []swift.Expr) ([]operand, error) {
	ops := make([]operand, len(exprs))
	for i, ex := range exprs {
		var err error
		if ops[i], err = c.compileExpr(e, sc, ex); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// compileInto compiles an expression so its result is stored into the
// existing TD referenced by outRef.
func (c *compiler) compileInto(e *emitter, sc *genScope, outRef string, outT swift.Type, ex swift.Expr) error {
	outTD := tdType(outT)
	if k, ok := c.known(sc, outT, ex); ok {
		e.linef("turbine::store_%s %s %s", outTD, outRef, k.val)
		return nil
	}
	switch x := ex.(type) {
	case *swift.Ident:
		v, ok := sc.lookup(x.Name)
		if !ok {
			return swift.Errorf(x.Pos(), "internal: unbound variable %q", x.Name)
		}
		src := operand{typ: tdType(v.typ), td: v.ref}
		e.rule([]operand{src}, "", "sw:copy", outRef, src.td, outTD)
		return nil
	case *swift.Unary:
		a, err := c.compileExpr(e, sc, x.X)
		if err != nil {
			return err
		}
		e.rule([]operand{a}, "", "sw:unop", outRef, x.Op, outTD, a.typ, a.arg())
		return nil
	case *swift.Binary:
		ops, err := c.compileOperands(e, sc, []swift.Expr{x.L, x.R})
		if err != nil {
			return err
		}
		l, r := ops[0], ops[1]
		e.rule(ops, "", "sw:binop", outRef, x.Op, outTD, l.typ, l.arg(), r.typ, r.arg())
		return nil
	case *swift.Call:
		return c.compileCallInto(e, sc, outRef, outT, x)
	case *swift.Index:
		ops, err := c.compileOperands(e, sc, []swift.Expr{x.Arr, x.Sub})
		if err != nil {
			return err
		}
		e.rule(ops, "", "sw:aread", outRef, outTD, ops[0].td, ops[1].arg())
		return nil
	case *swift.ArrayLit:
		elemT := swift.Type{Base: outT.Base}
		for i, el := range x.Elems {
			elem, err := c.compileExprAs(e, sc, elemT, el)
			if err != nil {
				return err
			}
			e.linef("turbine::container_insert %s %d %s", outRef, i, c.asTD(e, elem))
		}
		e.linef("turbine::write_refcount %s -1", outRef)
		return nil
	case *swift.RangeLit:
		bounds, err := c.compileRange(e, sc, x)
		if err != nil {
			return err
		}
		e.rule(bounds, "", append([]string{"sw:range_build", outRef}, argWords(bounds)...)...)
		return nil
	}
	return swift.Errorf(ex.Pos(), "internal: unknown expression %T", ex)
}

// compileRange compiles the lo, hi and step operands of a range (step 1
// when omitted).
func (c *compiler) compileRange(e *emitter, sc *genScope, r *swift.RangeLit) ([]operand, error) {
	if r.Step == nil {
		bounds, err := c.compileOperands(e, sc, []swift.Expr{r.Lo, r.Hi})
		return append(bounds, knownLit("integer", "1")), err
	}
	return c.compileOperands(e, sc, []swift.Expr{r.Lo, r.Hi, r.Step})
}

// compileCallInto compiles a single-output call storing into outRef.
func (c *compiler) compileCallInto(e *emitter, sc *genScope, outRef string, outT swift.Type, call *swift.Call) error {
	if b := swift.LookupBuiltin(call.Name); b != nil {
		return c.compileBuiltin(e, sc, outRef, outT, call, b)
	}
	return c.compileUserCall(e, sc, []string{outRef}, call)
}

// compileUserCall invokes a user-defined function with the given output
// TDs. A composite function is called engine-side, there and then, and
// registers its own rules, so its arguments must be TDs; a Tcl-template
// or app function is a leaf task released to a worker once its TD
// arguments close, and takes operands.
func (c *compiler) compileUserCall(e *emitter, sc *genScope, outRefs []string, call *swift.Call) error {
	f := c.prog.FindFunc(call.Name)
	if f == nil {
		return swift.Errorf(call.Pos(), "internal: undefined function %q", call.Name)
	}
	ops := make([]operand, len(call.Args))
	for i, a := range call.Args {
		var err error
		if ops[i], err = c.compileExprAs(e, sc, f.Ins[i].Type, a); err != nil {
			return err
		}
	}
	words := append([]string{"u:" + f.Name}, outRefs...)
	switch f.Kind {
	case swift.FuncComposite:
		for _, op := range ops {
			words = append(words, c.asTD(e, op))
		}
		e.linef("%s", strings.Join(words, " "))
		return nil
	case swift.FuncTclTemplate, swift.FuncApp:
		e.rule(ops, " type work", append(words, argWords(ops)...)...)
		return nil
	}
	return swift.Errorf(call.Pos(), "internal: bad function kind")
}

// compileBuiltin handles builtins in expression position.
func (c *compiler) compileBuiltin(e *emitter, sc *genScope, outRef string, outT swift.Type, call *swift.Call, b *swift.Builtin) error {
	ops, err := c.compileOperands(e, sc, call.Args)
	if err != nil {
		return err
	}
	outTD := tdType(outT)
	switch {
	case b.Name == "size":
		e.rule(ops, "", "sw:asize", outRef, ops[0].td)
	case b.Name == "vpack":
		// Container -> blob vector. Phase 1 (sw:vpack) must run
		// engine-side: it registers the member-wait rule; the gather
		// itself then runs as a worker leaf task.
		elemT := swift.Type{Base: c.ck.Types[call.Args[0]].Base}
		e.rule(ops, "", "sw:vpack", outRef, tdType(elemT), ops[0].td)
	case b.Name == "vunpack":
		// Blob vector -> container: one worker leaf task scatters the
		// elements in a single batched store and closes the array. The
		// element type comes from the assignment context (checkExprAs).
		e.rule(ops, " type work", "sw:vunpack", outRef, tdType(swift.Type{Base: outT.Base}), ops[0].td)
	case b.Name == "join_array":
		// Two-phase: wait for the container to close, then wait for all
		// members, then join their values.
		e.rule(ops, "", "sw:ajoin", outRef, ops[0].td, ops[1].arg())
	case b.Lang:
		// Interlanguage leaf call: one operand per argument. The engine
		// rank turns it into a leaf record that waits at the servers on
		// the TD operands; the worker runs it with no Tcl, takes the known
		// scalars from the record, loads the rest as typed values (blobs
		// always by reference) and stores the typed result, so no blob
		// element data is ever rendered into text.
		e.linef("turbine::leaf %s %s %s %s", b.Name, outRef, outTD, strings.Join(argWords(ops), " "))
	case b.Leaf:
		e.rule(ops, " type work", "sw:leaf", b.Name, outRef, outTD, typesOf(ops), tclList(argWords(ops)...))
	default:
		e.rule(ops, "", "sw:builtin", b.Name, outRef, outTD, typesOf(ops), tclList(argWords(ops)...))
	}
	return nil
}

// compileCallStmt compiles a call in statement position (printf, trace,
// zero-output functions, or ignored single-output calls).
func (c *compiler) compileCallStmt(e *emitter, sc *genScope, call *swift.Call) error {
	if b := swift.LookupBuiltin(call.Name); b != nil {
		switch b.Name {
		case "printf", "trace":
			ops, err := c.compileOperands(e, sc, call.Args)
			if err != nil {
				return err
			}
			e.rule(ops, "", "sw:"+b.Name, typesOf(ops), tclList(argWords(ops)...))
			return nil
		default:
			// Single-output builtin whose value is discarded.
			t := c.gensym("t")
			e.linef("set %s [turbine::allocate %s]", t, tdType(b.Out))
			return c.compileBuiltin(e, sc, "$"+t, b.Out, call, b)
		}
	}
	f := c.prog.FindFunc(call.Name)
	if f == nil {
		return swift.Errorf(call.Pos(), "internal: undefined function %q", call.Name)
	}
	// Allocate TDs for every output (discarded).
	var outRefs []string
	for _, o := range f.Outs {
		t := c.gensym("t")
		e.linef("set %s [turbine::allocate %s]", t, tdType(o.Type))
		outRefs = append(outRefs, "$"+t)
	}
	return c.compileUserCall(e, sc, outRefs, call)
}

// ---- control flow ----

// freeVars computes, in first-reference order, the Swift variables a
// nested block needs from its enclosing scope and how that scope refers
// to them. A by-value variable stays by value in the nested block: its
// integer is passed on in the block's argument list.
func (c *compiler) freeVars(sc *genScope, stmts []swift.Stmt, bound map[string]bool) ([]string, []genVar) {
	names := map[string]bool{}
	var order []string
	var walkExpr func(ex swift.Expr)
	var walkStmts func(ss []swift.Stmt, local map[string]bool)
	walkExpr = func(ex swift.Expr) {
		switch x := ex.(type) {
		case *swift.Ident:
			order = append(order, x.Name)
			names[x.Name] = true
		case *swift.Binary:
			walkExpr(x.L)
			walkExpr(x.R)
		case *swift.Unary:
			walkExpr(x.X)
		case *swift.Call:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *swift.Index:
			walkExpr(x.Arr)
			walkExpr(x.Sub)
		case *swift.ArrayLit:
			for _, el := range x.Elems {
				walkExpr(el)
			}
		case *swift.RangeLit:
			walkExpr(x.Lo)
			walkExpr(x.Hi)
			if x.Step != nil {
				walkExpr(x.Step)
			}
		}
	}
	walkStmts = func(ss []swift.Stmt, local map[string]bool) {
		sub := map[string]bool{}
		for k := range local {
			sub[k] = true
		}
		for _, s := range ss {
			switch st := s.(type) {
			case *swift.Decl:
				if st.Init != nil {
					walkExpr(st.Init)
				}
				sub[st.Name] = true
			case *swift.Assign:
				if !sub[st.LName] {
					order = append(order, st.LName)
					names[st.LName] = true
				}
				if st.LSub != nil {
					walkExpr(st.LSub)
				}
				walkExpr(st.RHS)
			case *swift.CallStmt:
				for _, a := range st.Call.Args {
					walkExpr(a)
				}
			case *swift.If:
				walkExpr(st.Cond)
				walkStmts(st.Then, sub)
				walkStmts(st.Else, sub)
			case *swift.Foreach:
				walkExpr(st.Seq)
				inner := map[string]bool{}
				for k := range sub {
					inner[k] = true
				}
				inner[st.Var] = true
				if st.IdxVar != "" {
					inner[st.IdxVar] = true
				}
				walkStmts(st.Body, inner)
			}
		}
	}
	walkStmts(stmts, bound)

	// Keep only variables resolvable in the enclosing scope, deduped in
	// first-reference order (deterministic codegen).
	seen := map[string]bool{}
	var frees []string
	var vars []genVar
	for _, n := range order {
		if seen[n] || bound[n] {
			continue
		}
		v, ok := sc.lookup(n)
		if !ok {
			continue // declared inside the block itself
		}
		seen[n] = true
		frees = append(frees, n)
		vars = append(vars, v)
	}
	return frees, vars
}

// refsOf lists the enclosing scope's Tcl references of variables.
func refsOf(vars []genVar) []string {
	refs := make([]string, len(vars))
	for i, v := range vars {
		refs[i] = v.ref
	}
	return refs
}

// writtenArrays finds enclosing-scope arrays assigned by subscript inside
// the block; their write refcounts must be managed across the async
// boundary.
func (c *compiler) writtenArrays(sc *genScope, stmts []swift.Stmt, bound map[string]bool) []string {
	found := map[string]bool{}
	var order []string
	var walk func(ss []swift.Stmt, local map[string]bool)
	walk = func(ss []swift.Stmt, local map[string]bool) {
		sub := map[string]bool{}
		for k := range local {
			sub[k] = true
		}
		for _, s := range ss {
			switch st := s.(type) {
			case *swift.Decl:
				sub[st.Name] = true
			case *swift.Assign:
				if st.LSub != nil && !sub[st.LName] && !found[st.LName] {
					if _, ok := sc.lookup(st.LName); ok {
						found[st.LName] = true
						order = append(order, st.LName)
					}
				}
			case *swift.If:
				walk(st.Then, sub)
				walk(st.Else, sub)
			case *swift.Foreach:
				inner := map[string]bool{}
				for k := range sub {
					inner[k] = true
				}
				inner[st.Var] = true
				if st.IdxVar != "" {
					inner[st.IdxVar] = true
				}
				walk(st.Body, inner)
			}
		}
	}
	walk(stmts, bound)
	var refs []string
	for _, n := range order {
		v, _ := sc.lookup(n)
		refs = append(refs, v.ref)
	}
	return refs
}

func (c *compiler) compileIf(e *emitter, sc *genScope, st *swift.If) error {
	cond, err := c.compileExpr(e, sc, st.Cond)
	if err != nil {
		return err
	}
	bound := map[string]bool{}
	all := append(append([]swift.Stmt{}, st.Then...), st.Else...)
	frees, vars := c.freeVars(sc, all, bound)
	warrs := c.writtenArrays(sc, all, bound)

	thenName := c.gensym("u:br") + "_t"
	if err := c.emitBlockProc(thenName, frees, vars, st.Then); err != nil {
		return err
	}
	elseName := "-"
	if st.Else != nil {
		elseName = c.gensym("u:br") + "_e"
		if err := c.emitBlockProc(elseName, frees, vars, st.Else); err != nil {
			return err
		}
	}
	for _, w := range warrs {
		e.linef("turbine::write_refcount %s 1", w)
	}
	e.rule([]operand{cond}, "", "sw:if", cond.arg(), thenName, elseName,
		tclList(refsOf(vars)...), tclList(warrs...))
	return nil
}

// emitBlockProc generates a proc for a nested block. Its parameters are
// the given variables, bound as v_<name> (by value where vars says so);
// an unnamed one is a positional argument the block does not use.
func (c *compiler) emitBlockProc(name string, names []string, vars []genVar, body []swift.Stmt) error {
	sc := &genScope{vars: map[string]genVar{}}
	params := make([]string, len(names))
	for i, n := range names {
		if n == "" {
			params[i] = "_"
			continue
		}
		params[i] = "v_" + n
		sc.vars[n] = genVar{ref: "$v_" + n, typ: vars[i].typ, byValue: vars[i].byValue}
	}
	e := newEmitter()
	if err := c.compileStmts(e, sc, body); err != nil {
		return err
	}
	c.extraProcs = append(c.extraProcs,
		fmt.Sprintf("proc %s {%s} {\n%s}\n", name, strings.Join(params, " "), e.b.String()))
	return nil
}

// compileForeach compiles a loop to a body proc plus a split rule. The
// body takes the element, then the index, then its free variables. The
// index — an array member's subscript, or the iteration's ordinal in a
// range — arrives by value, as does a range's element; an array's element
// is the member TD.
func (c *compiler) compileForeach(e *emitter, sc *genScope, st *swift.Foreach) error {
	rng, overRange := st.Seq.(*swift.RangeLit)
	elemT := swift.Type{Base: c.ck.Types[st.Seq].Base}

	bound := map[string]bool{st.Var: true}
	if st.IdxVar != "" {
		bound[st.IdxVar] = true
	}
	frees, vars := c.freeVars(sc, st.Body, bound)
	warrs := c.writtenArrays(sc, st.Body, bound)

	bodyName := c.gensym("u:loop")
	loopVars := []genVar{{typ: elemT, byValue: overRange}, {typ: swift.Type{Base: swift.TInt}, byValue: true}}
	if err := c.emitBlockProc(bodyName, append([]string{st.Var, st.IdxVar}, frees...), append(loopVars, vars...), st.Body); err != nil {
		return err
	}

	for _, w := range warrs {
		e.linef("turbine::write_refcount %s 1", w)
	}
	split := []string{bodyName, tclList(refsOf(vars)...), tclList(warrs...)}
	if overRange {
		// Range loop: split across engines without materialising an array.
		bounds, err := c.compileRange(e, sc, rng)
		if err != nil {
			return err
		}
		e.rule(bounds, "", append(append([]string{"sw:rsplit"}, split...), argWords(bounds)...)...)
		return nil
	}
	seq, err := c.compileExpr(e, sc, st.Seq)
	if err != nil {
		return err
	}
	e.rule([]operand{seq}, "", append(append([]string{"sw:asplit"}, split...), seq.td)...)
	return nil
}

// ---- Tcl template and app functions ----

// compileTemplateFunc emits the worker proc for a Tcl-template extension
// function (paper §III-A): inputs splice as $in_<name> values, outputs as
// out_<name> variable names whose final values are stored to the TDs.
func (c *compiler) compileTemplateFunc(f *swift.FuncDef) (string, error) {
	var params []string
	for _, o := range f.Outs {
		params = append(params, "td_"+o.Name)
	}
	for _, i := range f.Ins {
		params = append(params, "td_"+i.Name)
	}
	e := newEmitter()
	for _, i := range f.Ins {
		e.linef("set in_%s [turbine::value %s $td_%s]", i.Name, tdType(i.Type), i.Name)
	}
	tmpl := f.Template
	for _, i := range f.Ins {
		tmpl = strings.ReplaceAll(tmpl, "<<"+i.Name+">>", "$in_"+i.Name)
	}
	for _, o := range f.Outs {
		tmpl = strings.ReplaceAll(tmpl, "<<"+o.Name+">>", "out_"+o.Name)
	}
	if strings.Contains(tmpl, "<<") {
		return "", swift.Errorf(f.Tok.Pos(), "template for %q references unknown parameters: %s", f.Name, tmpl)
	}
	for _, line := range strings.Split(tmpl, "\n") {
		e.linef("%s", line)
	}
	for _, o := range f.Outs {
		e.linef("turbine::store_%s $td_%s $out_%s", tdType(o.Type), o.Name, o.Name)
	}
	return fmt.Sprintf("proc u:%s {%s} {\n%s}\n", f.Name, strings.Join(params, " "), e.b.String()), nil
}

// compileAppFunc emits the worker proc for an app (shell) function: the
// command words are assembled and passed to the shell engine's sh::eval
// command (the same lang-registry dispatch the sh(...) builtin uses);
// stdout feeds the single string output, if any.
func (c *compiler) compileAppFunc(f *swift.FuncDef) (string, error) {
	if len(f.Outs) > 1 || (len(f.Outs) == 1 && f.Outs[0].Type != (swift.Type{Base: swift.TString})) {
		return "", swift.Errorf(f.Tok.Pos(), "app %q: output must be a single string (stdout)", f.Name)
	}
	var params []string
	for _, o := range f.Outs {
		params = append(params, "td_"+o.Name)
	}
	for _, i := range f.Ins {
		params = append(params, "td_"+i.Name)
	}
	e := newEmitter()
	for _, i := range f.Ins {
		e.linef("set in_%s [turbine::value %s $td_%s]", i.Name, tdType(i.Type), i.Name)
	}
	var words []string
	for _, w := range f.AppWords {
		switch x := w.(type) {
		case *swift.StringLit:
			words = append(words, tcl.ListElement(x.Value))
		case *swift.Ident:
			words = append(words, "$in_"+x.Name)
		}
	}
	e.linef("set stdout_val [sh::eval %s]", strings.Join(words, " "))
	if len(f.Outs) == 1 {
		e.linef("turbine::store_string $td_%s $stdout_val", f.Outs[0].Name)
	}
	return fmt.Sprintf("proc u:%s {%s} {\n%s}\n", f.Name, strings.Join(params, " "), e.b.String()), nil
}
