package tcl

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/memo"
)

// Command is the Go signature of a Tcl command, the equivalent of a
// Tcl_ObjCmdProc. args[0] is the command name as invoked.
type Command func(in *Interp, args []string) (string, error)

// flow-control sentinels travel as error values, as in Tcl's result codes.
var (
	errBreak    = errors.New("tcl: break outside loop")
	errContinue = errors.New("tcl: continue outside loop")
)

type returnErr struct {
	value string
	code  int // 0=ok, 1=error, 2=return, 3=break, 4=continue
}

func (r *returnErr) Error() string { return "tcl: return" }

// RaisedError wraps a script-level error raised by the `error` command so
// callers can distinguish user errors from interpreter faults.
type RaisedError struct{ Msg string }

func (e *RaisedError) Error() string { return e.Msg }

// variable holds a scalar value or an array; upvar creates links.
type variable struct {
	val   string
	arr   map[string]string
	isArr bool
	link  *variable // non-nil for upvar/global aliases
	// app is the open append run, if any: the builder whose String() is
	// the current value of the scalar (or of array element app.key).
	// Every write other than an append drops it (see appendVar).
	app *appendRun
}

// appendRun is what makes append and lappend amortised O(1) per element:
// the value handed out is the builder's String(), which shares the
// builder's buffer, and the next append writes past its end (or into a
// grown copy), so strings already handed out never change.
type appendRun struct {
	b   strings.Builder
	key string // array element the run belongs to; "" for a scalar
}

func (v *variable) target() *variable {
	for v.link != nil {
		v = v.link
	}
	return v
}

// frame is one procedure call frame.
type frame struct {
	vars map[string]*variable
	ns   string // namespace in effect for this frame
	proc string // name of the executing proc, for error traces
}

// Interp is one Tcl interpreter: commands, procedure definitions, a
// global frame, and a call stack. It is not safe for concurrent use; the
// runtime gives each engine and worker rank its own interpreter, exactly
// as Swift/T gives each MPI process its own Tcl.
type Interp struct {
	cmds     map[string]Command
	procs    map[string]*procDef
	global   *frame
	stack    []*frame
	ns       string // current namespace ("" = global)
	Out      io.Writer
	depth    int
	maxDep   int
	pkgs     map[string]string                 // provided packages: name -> version
	PkgPath  []string                          // TCLLIBPATH-style search path
	SourceFS func(path string) (string, error) // hook for source/package loading
	// ClientData carries host-runtime state (ADLB client, engine, embedded
	// interpreters) into registered commands, like Tcl's clientData.
	ClientData map[string]any
	evalLevel  int

	// Compile-once caches (see script.go): parsed scripts and expression
	// ASTs keyed by source text. Both hold parse results only, so cached
	// and uncached evaluation are indistinguishable.
	scripts *memo.Budget[*Script]
	exprs   *memo.Budget[exprNode]
}

type procDef struct {
	params []param
	body   string
	ns     string
	// compiled is the parsed body, filled in on first call so that
	// subsequent calls skip parseScript entirely. A redefinition installs
	// a fresh procDef, so stale compiled bodies cannot survive.
	compiled *Script
}

type param struct {
	name   string
	def    string
	hasDef bool
}

// New creates an interpreter with the core command set registered.
func New() *Interp {
	in := &Interp{
		cmds:       make(map[string]Command),
		procs:      make(map[string]*procDef),
		global:     &frame{vars: map[string]*variable{}},
		Out:        os.Stdout,
		maxDep:     1000,
		pkgs:       map[string]string{},
		ClientData: map[string]any{},
		scripts:    memo.NewBudget[*Script](defaultScriptCacheSize, memo.UnitCost[*Script]),
		exprs:      memo.NewBudget[exprNode](defaultExprCacheSize, memo.UnitCost[exprNode]),
	}
	in.stack = []*frame{in.global}
	registerCore(in)
	registerStringCmds(in)
	registerListCmds(in)
	return in
}

// RegisterCommand binds a Go function as a Tcl command; the equivalent of
// Tcl_CreateObjCommand, used by the Turbine runtime, SWIG-generated
// wrappers, and the Python/R extension packages.
func (in *Interp) RegisterCommand(name string, fn Command) {
	in.cmds[name] = fn
}

// UnregisterCommand removes a command (rename name "").
func (in *Interp) UnregisterCommand(name string) {
	delete(in.cmds, name)
}

// HasCommand reports whether a command or proc with this name exists.
func (in *Interp) HasCommand(name string) bool {
	if _, ok := in.cmds[name]; ok {
		return true
	}
	_, ok := in.procs[name]
	return ok
}

func (in *Interp) frame() *frame { return in.stack[len(in.stack)-1] }

// lookupVar resolves a variable name (possibly array-element syntax) in
// the current frame, returning the map, base name, and element key.
func splitVarName(name string) (base, key string, isElem bool) {
	if i := strings.IndexByte(name, '('); i >= 0 && strings.HasSuffix(name, ")") {
		return name[:i], name[i+1 : len(name)-1], true
	}
	return name, "", false
}

// GetVar returns the value of a variable in the current frame.
func (in *Interp) GetVar(name string) (string, error) {
	base, key, isElem := splitVarName(name)
	f := in.frame()
	v, ok := f.vars[base]
	if !ok && strings.HasPrefix(base, "::") {
		v, ok = in.global.vars[base[2:]]
	}
	if !ok {
		return "", fmt.Errorf(`tcl: can't read "%s": no such variable`, name)
	}
	v = v.target()
	if isElem {
		if !v.isArr {
			return "", fmt.Errorf(`tcl: can't read "%s": variable isn't array`, name)
		}
		val, ok := v.arr[key]
		if !ok {
			return "", fmt.Errorf(`tcl: can't read "%s": no such element in array`, name)
		}
		return val, nil
	}
	if v.isArr {
		return "", fmt.Errorf(`tcl: can't read "%s": variable is array`, name)
	}
	return v.val, nil
}

// writable resolves name for assignment in the current frame, creating
// the variable (and turning an empty scalar into an array for element
// syntax) as set does.
func (in *Interp) writable(name string) (v *variable, key string, isElem bool, err error) {
	base, key, isElem := splitVarName(name)
	f := in.frame()
	if strings.HasPrefix(base, "::") {
		f = in.global
		base = base[2:]
	}
	v, ok := f.vars[base]
	if !ok {
		v = &variable{}
		f.vars[base] = v
	}
	v = v.target()
	if isElem {
		if !v.isArr {
			if v.val != "" {
				return nil, "", false, fmt.Errorf(`tcl: can't set "%s": variable isn't array`, name)
			}
			v.isArr = true
			v.arr = map[string]string{}
		}
		return v, key, true, nil
	}
	if v.isArr {
		return nil, "", false, fmt.Errorf(`tcl: can't set "%s": variable is array`, name)
	}
	return v, "", false, nil
}

// SetVar assigns a variable in the current frame.
func (in *Interp) SetVar(name, value string) error {
	v, key, isElem, err := in.writable(name)
	if err != nil {
		return err
	}
	v.app = nil
	if isElem {
		v.arr[key] = value
	} else {
		v.val = value
	}
	return nil
}

// appendVar extends a variable's value in place — the shared tail of
// append and lappend — and returns the new value. write receives the
// builder already holding the current value (empty for an unset
// variable). Consecutive appends to one variable reuse the builder, so a
// loop of n appends copies O(n) bytes in total rather than O(n^2).
func (in *Interp) appendVar(name string, write func(b *strings.Builder)) (string, error) {
	v, key, isElem, err := in.writable(name)
	if err != nil {
		return "", err
	}
	if v.app == nil || v.app.key != key {
		v.app = &appendRun{key: key}
		if isElem {
			v.app.b.WriteString(v.arr[key])
		} else {
			v.app.b.WriteString(v.val)
		}
	}
	write(&v.app.b)
	res := v.app.b.String()
	if isElem {
		v.arr[key] = res
	} else {
		v.val = res
	}
	return res, nil
}

// UnsetVar removes a variable or array element.
func (in *Interp) UnsetVar(name string) error {
	base, key, isElem := splitVarName(name)
	f := in.frame()
	if strings.HasPrefix(base, "::") {
		f = in.global
		base = base[2:]
	}
	v, ok := f.vars[base]
	if !ok {
		return fmt.Errorf(`tcl: can't unset "%s": no such variable`, name)
	}
	if isElem {
		t := v.target()
		if !t.isArr {
			return fmt.Errorf(`tcl: can't unset "%s": variable isn't array`, name)
		}
		t.app = nil
		delete(t.arr, key)
		return nil
	}
	delete(f.vars, base)
	return nil
}

// VarExists reports whether a variable (or array element) is readable.
func (in *Interp) VarExists(name string) bool {
	base, key, isElem := splitVarName(name)
	f := in.frame()
	v, ok := f.vars[base]
	if !ok && strings.HasPrefix(base, "::") {
		v, ok = in.global.vars[base[2:]]
	}
	if !ok {
		return false
	}
	v = v.target()
	if isElem {
		if !v.isArr {
			return false
		}
		_, ok := v.arr[key]
		return ok
	}
	return true
}

// Eval evaluates a script and returns the result of its last command.
// Parsing is memoized: each distinct source string is parsed once per
// interpreter and the compiled form is reused on every later Eval of the
// same text — the case for loop bodies, rule actions, and proc calls.
func (in *Interp) Eval(src string) (string, error) {
	s, err := in.compile(src)
	if err != nil {
		return "", err
	}
	return in.EvalScript(s)
}

// compile returns the memoized compiled form of src, parsing on a miss.
// Parse errors are not cached; erroneous scripts are rare and re-parsing
// them keeps the cache free of dead entries.
func (in *Interp) compile(src string) (*Script, error) {
	return in.scripts.GetOrCompute(src, func() (*Script, error) {
		return CompileScript(src)
	})
}

// EvalScript evaluates an already-compiled script. The script may be
// shared with other interpreters; evaluation never mutates it.
func (in *Interp) EvalScript(s *Script) (string, error) {
	in.evalLevel++
	defer func() { in.evalLevel-- }()
	if in.evalLevel > in.maxDep {
		return "", fmt.Errorf("tcl: too many nested evaluations (infinite loop?)")
	}
	var result string
	var err error
	for i := range s.cmds {
		result, err = in.evalCommand(&s.cmds[i])
		if err != nil {
			return result, err
		}
	}
	return result, nil
}

func (in *Interp) evalCommand(cmd *command) (string, error) {
	words := make([]string, 0, len(cmd.words))
	for i := range cmd.words {
		w := &cmd.words[i]
		switch w.kind {
		case wordBraced:
			words = append(words, w.text)
		case wordBare, wordQuoted:
			// Parse-time fast path: a word with no $, [, or backslash
			// substitutes to itself.
			if w.literal {
				words = append(words, w.text)
				continue
			}
			s, err := in.substNonLiteral(w)
			if err != nil {
				return "", err
			}
			words = append(words, s)
		case wordExpand:
			s := w.text
			if !w.literal {
				var err error
				s, err = in.substNonLiteral(w)
				if err != nil {
					return "", err
				}
			}
			elems, err := ParseList(s)
			if err != nil {
				return "", err
			}
			words = append(words, elems...)
		}
	}
	if len(words) == 0 {
		return "", nil
	}
	return in.Call(words)
}

// substNonLiteral substitutes a non-literal word through its parse-time
// compiled plan (every non-literal word carries one; malformed
// constructs are error segments that raise here, at first evaluation).
func (in *Interp) substNonLiteral(w *word) (string, error) {
	if w.plan == nil {
		return in.substWord(w.text) // defensive: words built outside parseCommand
	}
	return in.substPlan(w.plan)
}

// Call invokes a command with pre-substituted words.
func (in *Interp) Call(words []string) (string, error) {
	name := words[0]
	if fn := in.resolveCommand(name); fn != nil {
		res, err := fn(in, words)
		if err != nil {
			return res, in.annotate(err, name)
		}
		return res, nil
	}
	if p := in.resolveProc(name); p != nil {
		return in.callProc(name, p, words[1:])
	}
	return "", fmt.Errorf(`tcl: invalid command name "%s"`, name)
}

func (in *Interp) annotate(err error, name string) error {
	switch err.(type) {
	case *returnErr:
		return err
	}
	if err == errBreak || err == errContinue {
		return err
	}
	return err
}

// resolveCommand looks a command up in the current namespace, then global.
func (in *Interp) resolveCommand(name string) Command {
	if strings.HasPrefix(name, "::") {
		return in.cmds[name[2:]]
	}
	if in.ns != "" {
		if fn, ok := in.cmds[in.ns+"::"+name]; ok {
			return fn
		}
	}
	return in.cmds[name]
}

func (in *Interp) resolveProc(name string) *procDef {
	if strings.HasPrefix(name, "::") {
		return in.procs[name[2:]]
	}
	if in.ns != "" {
		if p, ok := in.procs[in.ns+"::"+name]; ok {
			return p
		}
	}
	return in.procs[name]
}

func (in *Interp) callProc(name string, p *procDef, args []string) (string, error) {
	if in.depth >= in.maxDep {
		return "", fmt.Errorf("tcl: call depth limit (%d) exceeded calling %q", in.maxDep, name)
	}
	f := &frame{vars: map[string]*variable{}, ns: p.ns, proc: name}
	// Bind parameters; a trailing "args" parameter collects the rest.
	hasVarArgs := len(p.params) > 0 && p.params[len(p.params)-1].name == "args"
	fixed := p.params
	if hasVarArgs {
		fixed = p.params[:len(p.params)-1]
	}
	for i, prm := range fixed {
		switch {
		case i < len(args):
			f.vars[prm.name] = &variable{val: args[i]}
		case prm.hasDef:
			f.vars[prm.name] = &variable{val: prm.def}
		default:
			return "", fmt.Errorf(`tcl: wrong # args: should be "%s %s"`, name, procSignature(p))
		}
	}
	if hasVarArgs {
		var rest []string
		if len(args) > len(fixed) {
			rest = args[len(fixed):]
		}
		f.vars["args"] = &variable{val: FormatList(rest)}
	} else if len(args) > len(fixed) {
		return "", fmt.Errorf(`tcl: wrong # args: should be "%s %s"`, name, procSignature(p))
	}

	// Compile the body once, on first call; later calls skip parsing.
	// (Definition time would also work, but first-call keeps proc-body
	// syntax errors surfacing at call time, as uncached evaluation did,
	// and ranks never pay for procs they never invoke.)
	if p.compiled == nil {
		s, err := in.compile(p.body)
		if err != nil {
			return "", err
		}
		p.compiled = s
	}

	in.stack = append(in.stack, f)
	in.depth++
	savedNS := in.ns
	in.ns = p.ns
	defer func() {
		in.stack = in.stack[:len(in.stack)-1]
		in.depth--
		in.ns = savedNS
	}()
	res, err := in.EvalScript(p.compiled)
	if err != nil {
		if r, ok := err.(*returnErr); ok {
			switch r.code {
			case 0, 2:
				return r.value, nil
			case 1:
				return "", &RaisedError{Msg: r.value}
			case 3:
				return "", errBreak
			case 4:
				return "", errContinue
			}
		}
		return res, err
	}
	return res, nil
}

func procSignature(p *procDef) string {
	parts := make([]string, len(p.params))
	for i, prm := range p.params {
		if prm.hasDef {
			parts[i] = "?" + prm.name + "?"
		} else {
			parts[i] = prm.name
		}
	}
	return strings.Join(parts, " ")
}

// qualify returns name prefixed with the current namespace unless it is
// already absolute.
func (in *Interp) qualify(name string) string {
	if strings.HasPrefix(name, "::") {
		return name[2:]
	}
	if in.ns != "" && !strings.Contains(name, "::") {
		return in.ns + "::" + name
	}
	return name
}
