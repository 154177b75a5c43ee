package pylite

// Scope resolution: one pass over a freshly parsed module or expression
// that gives every name in a def or lambda body its place. A name the
// function binds (a parameter, an assignment, for or del target, a def
// or import, unless declared global) is a slot of the call's frame; a
// read of any other name walks the enclosing functions' slots that bind
// it, then the globals, then the builtins. The pass depends on the
// source alone, so its result lives in the cached AST; which global slot
// a name uses is per interpreter and settled at run time (Interp.gslot).

// walker gathers from one function body, or from the module, every name
// node, the names bound and declared global, and the nested functions,
// whose bodies it leaves to their own walk.
type walker struct {
	names   []*eName
	bound   []string
	globals map[string]bool
	inner   []*fnCode
}

func (w *walker) stmts(ss []pstmt) {
	for _, s := range ss {
		switch st := s.(type) {
		case *sExpr:
			w.expr(st.x)
		case *sAssign:
			w.bind(st.target)
			w.expr(st.value)
		case *sIf:
			w.expr(st.cond)
			w.stmts(st.then)
			w.stmts(st.els)
		case *sWhile:
			w.expr(st.cond)
			w.stmts(st.body)
		case *sFor:
			for _, v := range st.vars {
				w.bind(v)
			}
			w.expr(st.seq)
			w.stmts(st.body)
		case *sDef:
			w.bind(st.target)
			w.inner = append(w.inner, st.fn)
		case *sReturn:
			w.expr(st.x)
		case *sImport:
			w.bind(st.target)
		case *sDel:
			w.bind(st.target)
		case *sGlobal:
			if w.globals == nil {
				w.globals = map[string]bool{}
			}
			for _, n := range st.names {
				w.globals[n] = true
			}
		}
	}
}

// bind records a binding target: a name binds itself, a subscript or an
// attribute binds nothing but reads its operands.
func (w *walker) bind(target pexpr) {
	if n, ok := target.(*eName); ok {
		w.bound = append(w.bound, n.name)
	}
	w.expr(target)
}

func (w *walker) expr(x pexpr) {
	switch ex := x.(type) {
	case *eName:
		w.names = append(w.names, ex)
	case *eBin:
		w.expr(ex.l)
		w.expr(ex.r)
	case *eUn:
		w.expr(ex.x)
	case *eCall:
		w.expr(ex.fn)
		for _, a := range ex.args {
			w.expr(a)
		}
	case *eSub:
		w.expr(ex.obj)
		w.expr(ex.idx)
	case *eSlice:
		w.expr(ex.obj)
		w.expr(ex.lo)
		w.expr(ex.hi)
	case *eList:
		for _, el := range ex.elems {
			w.expr(el)
		}
	case *eDict:
		for i := range ex.keys {
			w.expr(ex.keys[i])
			w.expr(ex.vals[i])
		}
	case *eAttr:
		w.expr(ex.obj)
	case *eLambda:
		w.inner = append(w.inner, ex.fn)
	}
}

// resolveModule resolves the functions a module (or an EvalExpr
// expression, x) defines; its own names are module-scope, left at local
// -1.
func resolveModule(stmts []pstmt, x pexpr) {
	var w walker
	w.stmts(stmts)
	w.expr(x)
	for _, fn := range w.inner {
		resolveFn(fn, nil)
	}
}

// scope is one function's frame layout while names inside it resolve.
type scope struct {
	up      *scope
	slots   map[string]int
	globals map[string]bool
}

// resolveFn sizes a def or lambda's frame, places every name in its
// body, and resolves the functions nested in it.
func resolveFn(fn *fnCode, up *scope) {
	var w walker
	w.stmts(fn.body)
	w.expr(fn.expr)
	sc := &scope{up: up, slots: map[string]int{}, globals: w.globals}
	for i, p := range fn.params {
		sc.slots[p] = i
	}
	fn.nslots = len(fn.params)
	for _, name := range w.bound {
		if _, ok := sc.slots[name]; !ok && !sc.globals[name] {
			sc.slots[name] = fn.nslots
			fn.nslots++
		}
	}
	for _, x := range w.names {
		sc.resolve(x)
	}
	for _, inner := range w.inner {
		resolveFn(inner, sc)
	}
}

// resolve places one name: its own frame's slot, then each enclosing
// frame that binds it, stopping at a global declaration.
func (sc *scope) resolve(x *eName) {
	for s, depth := sc, 0; s != nil; s, depth = s.up, depth+1 {
		if i, ok := s.slots[x.name]; ok {
			if depth == 0 {
				x.local = i
			} else {
				x.outer = append(x.outer, upvar{depth: depth, slot: i})
			}
		} else if s.globals[x.name] {
			return
		}
	}
}
