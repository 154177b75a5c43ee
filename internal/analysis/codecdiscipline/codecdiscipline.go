// Package codecdiscipline enforces the wire-codec contracts of the PR 4
// hardening in any package that declares the codec types:
//
//   - decoder/finish: a function that obtains a wire decoder (composite
//     literal or a call returning one) and reads from it must call
//     finish() on every non-error return path that follows a read, so
//     the sticky decode error and the trailing-bytes check can never be
//     skipped. A path that returns a possibly-non-nil error is exempt —
//     the error already supersedes whatever finish() would report.
//     Passing the decoder to another function is a borrow (partial
//     decode helpers read on the caller's behalf; the obligation stays
//     here), while returning, storing, or capturing it transfers
//     ownership out of the function along with the obligation. Decoder
//     parameters carry no obligation: the constructor owns it.
//   - encoder/frame: the encoder's raw buffer field (buf) may be touched
//     only in the file that declares the encoder type; every other site
//     must go through the sticky-error frame() helper, which makes an
//     unframeable field unable to reach the transport as a corrupted
//     frame. Discarding frame()'s error with a blank identifier is also
//     an error.
//
// The analyzer keys on structure, not import paths: it activates in any
// package declaring a named type `decoder` with a `finish` method or a
// named type `encoder` with a `frame` method (internal/adlb's wire codec
// and internal/lang's leaf-record decoder today). Functions whose
// receiver is the codec type itself (the codec's own methods) are exempt.
package codecdiscipline

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/driver"
)

// New returns a fresh analyzer instance.
func New() *driver.Analyzer {
	return &driver.Analyzer{
		Name: "codecdiscipline",
		Doc:  "wire decoders must finish() on every read path; encoder buffers must go through frame()",
		Run:  run,
	}
}

func run(pass *driver.Pass) {
	dec := codecType(pass.Pkg, "decoder", "finish")
	enc := codecType(pass.Pkg, "encoder", "frame")
	if dec == nil && enc == nil {
		return
	}
	encFile := ""
	if enc != nil {
		encFile = pass.Fset.Position(enc.Obj().Pos()).Filename
	}

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil || isCodecMethod(pass, n, dec, enc) {
					return true
				}
				checkFunc(pass, dec, n.Type, n.Body)
			case *ast.FuncLit:
				checkFunc(pass, dec, n.Type, n.Body)
			case *ast.SelectorExpr:
				checkBufAccess(pass, enc, encFile, n)
			}
			return true
		})
	}
}

// codecType finds a package-scope named struct type with the given name
// and method, or nil.
func codecType(pkg *types.Package, name, method string) *types.Named {
	obj, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == method {
			return named
		}
	}
	return nil
}

// isCodecMethod reports whether fn is a method of the codec types
// themselves (their field accesses are the implementation, not a
// bypass).
func isCodecMethod(pass *driver.Pass, fn *ast.FuncDecl, dec, enc *types.Named) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(fn.Recv.List[0].Type)
	return isNamed(t, dec) || isNamed(t, enc)
}

// isNamed reports whether t is named (or pointer to named).
func isNamed(t types.Type, named *types.Named) bool {
	if named == nil || t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}

// checkBufAccess reports raw encoder.buf access outside the codec file.
func checkBufAccess(pass *driver.Pass, enc *types.Named, encFile string, sel *ast.SelectorExpr) {
	if enc == nil || sel.Sel.Name != "buf" {
		return
	}
	if !isNamed(pass.TypesInfo.TypeOf(sel.X), enc) {
		return
	}
	if pass.Fset.Position(sel.Pos()).Filename == encFile {
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"raw access to encoder.buf outside the codec file; frames must be obtained via frame() so sticky encode errors cannot reach the transport")
}

// ---------- decoder finish discipline ----------

// decState is the per-path state: pending marks decoders that have been
// read on some path reaching this point with finish() still owed, dead
// marks decoders whose obligation escaped to another owner. Both are
// "may" facts OR'd at joins — a decoder constructed, read, and finished
// wholly inside one branch contributes nothing to the joined state, so
// the untaken branch can neither mask nor fake a violation.
type decState struct {
	pending map[types.Object]bool
	dead    map[types.Object]bool
}

func newDecState() *decState {
	return &decState{
		pending: map[types.Object]bool{},
		dead:    map[types.Object]bool{},
	}
}

func (s *decState) Clone() driver.FlowState {
	n := newDecState()
	n.CopyFrom(s)
	return n
}

func (s *decState) CopyFrom(src driver.FlowState) {
	o := src.(*decState)
	s.pending = cloneSet(o.pending)
	s.dead = cloneSet(o.dead)
}

func (s *decState) Join(other driver.FlowState) {
	o := other.(*decState)
	orInto(s.pending, o.pending) // an unfinished read on any path counts
	orInto(s.dead, o.dead)       // any escape releases the obligation
}

func cloneSet(m map[types.Object]bool) map[types.Object]bool {
	n := make(map[types.Object]bool, len(m))
	for k, v := range m {
		n[k] = v
	}
	return n
}

func orInto(dst, src map[types.Object]bool) {
	for k, v := range src {
		if v {
			dst[k] = true
		}
	}
}

type decChecker struct {
	pass    *driver.Pass
	dec     *types.Named
	tracked map[types.Object]bool
	// deferredDone marks decoders with a deferred finish(): it runs at
	// every later return, so it is a property of the variable, not of
	// one path (defers sit next to the binding in practice).
	deferredDone map[types.Object]bool
}

// checkFunc runs the decoder-finish path analysis over one function.
func checkFunc(pass *driver.Pass, dec *types.Named, ftype *ast.FuncType, body *ast.BlockStmt) {
	if dec == nil || body == nil {
		return
	}
	c := &decChecker{pass: pass, dec: dec, tracked: map[types.Object]bool{}, deferredDone: map[types.Object]bool{}}
	errLast := returnsError(pass, ftype)

	st := newDecState()
	// Only decoders constructed in this function are tracked (parameters
	// belong to whoever built them); evalAssign registers them as their
	// bindings appear.

	w := &driver.FlowWalker{
		EvalExpr:   func(e ast.Expr, fs driver.FlowState) { c.evalExpr(e, fs.(*decState)) },
		EvalAssign: func(a *ast.AssignStmt, fs driver.FlowState) { c.evalAssign(a, fs.(*decState)) },
		EvalDefer:  func(call *ast.CallExpr, fs driver.FlowState) { c.evalDefer(call, fs.(*decState)) },
		AtReturn: func(pos token.Pos, ret *ast.ReturnStmt, fs driver.FlowState) {
			if isErrorPath(errLast, ret) {
				return
			}
			s := fs.(*decState)
			for obj := range c.tracked {
				if s.pending[obj] && !s.dead[obj] && !c.deferredDone[obj] {
					c.pass.Reportf(pos, "wire decoder %q read on this path but finish() never called: sticky decode errors and trailing bytes go unchecked", obj.Name())
					delete(s.pending, obj) // one report per path suffices
				}
			}
		},
	}
	w.Walk(body, st)
}

// isErrorPath reports whether ret leaves the function with a possibly
// non-nil error: the last result slot is an error and the returned
// expression is anything but the literal nil. Such a path is exempt —
// the caller already sees a failure, which supersedes finish()'s sticky
// error and trailing-bytes report.
func isErrorPath(errLast bool, ret *ast.ReturnStmt) bool {
	if !errLast || ret == nil || len(ret.Results) == 0 {
		return false
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	id, ok := last.(*ast.Ident)
	return !ok || id.Name != "nil"
}

func returnsError(pass *driver.Pass, ftype *ast.FuncType) bool {
	if ftype.Results == nil || len(ftype.Results.List) == 0 {
		return false
	}
	last := ftype.Results.List[len(ftype.Results.List)-1]
	t := pass.TypesInfo.TypeOf(last.Type)
	return t != nil && t.String() == "error"
}

// trackedObj resolves e (through parens) to a tracked decoder variable.
func (c *decChecker) trackedObj(e ast.Expr) types.Object {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj != nil && c.tracked[obj] {
		return obj
	}
	return nil
}

func (c *decChecker) evalExpr(e ast.Expr, st *decState) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if obj := c.trackedObj(sel.X); obj != nil {
				if sel.Sel.Name == "finish" {
					delete(st.pending, obj)
				} else {
					st.pending[obj] = true
				}
				c.evalArgs(e, st)
				return
			}
		}
		c.evalExpr(e.Fun, st)
		c.evalArgs(e, st)
	case *ast.SelectorExpr:
		if obj := c.trackedObj(e.X); obj != nil {
			// Direct field access (d.err, d.buf, d.off) is a read that
			// bypasses the error-checking API.
			st.pending[obj] = true
			return
		}
		c.evalExpr(e.X, st)
	case *ast.Ident:
		if obj := c.trackedObj(e); obj != nil {
			// Naked use: passed, returned, stored, or captured — the
			// obligation moves with the value.
			st.dead[obj] = true
		}
	case *ast.FuncLit:
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.trackedObj(id); obj != nil {
					st.dead[obj] = true
				}
			}
			return true
		})
	default:
		ast.Inspect(e, func(n ast.Node) bool {
			if n == e {
				return true
			}
			if sub, ok := n.(ast.Expr); ok {
				c.evalExpr(sub, st)
				return false
			}
			return true
		})
	}
}

// evalArgs walks a call's arguments. A tracked decoder passed directly
// as an argument is a borrow — the callee reads on the caller's behalf
// and the obligation stays here — so it is marked read but not escaped.
func (c *decChecker) evalArgs(call *ast.CallExpr, st *decState) {
	for _, a := range call.Args {
		if obj := c.trackedObj(a); obj != nil {
			st.pending[obj] = true
			continue
		}
		c.evalExpr(a, st)
	}
}

func (c *decChecker) evalAssign(a *ast.AssignStmt, st *decState) {
	// Blank-discard of frame()'s sticky error.
	if len(a.Rhs) == 1 {
		if call, ok := a.Rhs[0].(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "frame" {
				if t := c.pass.TypesInfo.TypeOf(sel.X); t != nil && len(a.Lhs) == 2 {
					if enc := codecType(c.pass.Pkg, "encoder", "frame"); enc != nil && isNamed(t, enc) {
						if id, ok := a.Lhs[1].(*ast.Ident); ok && id.Name == "_" {
							c.pass.Reportf(a.Pos(), "frame() error discarded with blank identifier; a sticky encode error must not be dropped")
						}
					}
				}
			}
		}
	}
	for _, e := range a.Rhs {
		c.evalExpr(e, st)
	}
	for _, e := range a.Lhs {
		if id, ok := e.(*ast.Ident); ok {
			// (Re)binding a decoder-typed variable starts fresh tracking.
			if obj := c.pass.TypesInfo.Defs[id]; obj != nil && isNamed(obj.Type(), c.dec) {
				c.tracked[obj] = true
				delete(st.pending, obj)
				delete(st.dead, obj)
				continue
			}
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.tracked[obj] {
				delete(st.pending, obj)
				delete(st.dead, obj)
				continue
			}
			continue
		}
		c.evalExpr(e, st)
	}
}

func (c *decChecker) evalDefer(call *ast.CallExpr, st *decState) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "finish" {
		if obj := c.trackedObj(sel.X); obj != nil {
			// Deferred finish runs at every later return.
			c.deferredDone[obj] = true
		}
	}
}
