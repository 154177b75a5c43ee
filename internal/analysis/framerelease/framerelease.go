// Package framerelease enforces the pooled-frame ownership contract of
// the PR 7 data plane: a buffer obtained from Comm.Recv / RecvTimeout
// is owned by the receiving function, and within that function it must
// either reach Comm.Release on every return path that used it, or have
// its ownership visibly transferred (returned, stored into a field,
// slice, or map, passed to another function, or captured by a closure).
// After Release, the frame belongs to the pool: any further use of the
// buffer or of a slice derived from it — including a second Release —
// is a use-after-free the garbage collector will never catch, because
// the next Send may already own the bytes.
//
// The analyzer keys on structure, not import paths: it tracks results
// of methods named Recv/RecvTimeout on a named type `Comm` that also
// has a `Release` method (internal/mpi today, a TCP transport handle
// tomorrow). The same ownership discipline covers the pool itself:
// a buffer from framePool.get must reach framePool.put exactly once
// unless ownership transfers — the TCP read loop draws frames straight
// from the pool, so its acquire sites never pass through Recv.
//
// A sender's frame has a transfer point of its own: a buffer from
// Comm.Frame must reach Comm.SendFrame or Comm.Release exactly once,
// and SendFrame hands it, and every slice aliasing it, to the receiver,
// so any use after SendFrame — a read, an escape, a Release, a second
// send — is flagged like a use after Release. A received frame may be
// handed on by SendFrame too, under the same rule. Appending to a
// tracked buffer (buf = append(buf, ...)) keeps tracking it: a frame is
// filled that way. Copying
// builtins (len, cap, copy, append with ..., string/byte conversions)
// count as uses, not transfers; appending the slice header itself into
// a container is a transfer.
//
// A frame the receiver may keep has one decision point: a retention
// predicate, a bool function named retains* (adlb's retainsRequestFrame:
// a Get frame is retained iff one of its entries is a Store or a
// StoreChunk, whose rows the data store keeps aliasing the frame). In a
// function that consults one, every Release must sit in the body of an
// `if !retains...(...)` — a Release the predicate does not guard would
// recycle a frame the data store still reads. What the predicate
// answers for each frame is pinned at run time (adlb's FuzzBatchFrame,
// which fuzzes a Get's entries).
package framerelease

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/driver"
)

// New returns a fresh analyzer instance.
func New() *driver.Analyzer {
	return &driver.Analyzer{
		Name: "framerelease",
		Doc:  "frames from Comm.Recv or Comm.Frame (and buffers from framePool.get) must be released or sent exactly once on every used path and never touched after",
		Run:  run,
	}
}

func run(pass *driver.Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunc(pass, n.Body)
					checkRetention(pass, n.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, n.Body)
			}
			return true
		})
	}
}

// checkRetention reports each Release in body that no negated retention
// predicate guards, when body consults a retention predicate at all.
func checkRetention(pass *driver.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass}
	consults := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.retentionCall(call) {
			consults = true
		}
		return !consults
	})
	if !consults {
		return
	}
	var walk func(n ast.Node, guarded bool)
	walk = func(n ast.Node, guarded bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.IfStmt:
				if n.Init != nil {
					walk(n.Init, guarded)
				}
				walk(n.Cond, guarded)
				walk(n.Body, guarded || c.notRetained(n.Cond))
				if n.Else != nil {
					walk(n.Else, guarded)
				}
				return false
			case *ast.CallExpr:
				if c.releaseCall(n) && !guarded {
					pass.Reportf(n.Pos(), "Release outside `if !retains...`: this function consults a retention predicate, and a frame it retains must not be recycled under the data aliasing it")
				}
			}
			return true
		})
	}
	walk(body, false)
}

// retentionCall reports whether call is a retention predicate: a
// function or method named retains* returning one bool.
func (c *checker) retentionCall(call *ast.CallExpr) bool {
	var name string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	default:
		return false
	}
	if !strings.HasPrefix(name, "retains") {
		return false
	}
	b, ok := c.pass.TypesInfo.TypeOf(call).(*types.Basic)
	return ok && b.Kind() == types.Bool
}

// notRetained reports whether cond is the negation of a retention
// predicate's call.
func (c *checker) notRetained(cond ast.Expr) bool {
	for {
		p, ok := cond.(*ast.ParenExpr)
		if !ok {
			break
		}
		cond = p.X
	}
	u, ok := cond.(*ast.UnaryExpr)
	if !ok || u.Op != token.NOT {
		return false
	}
	call, ok := ast.Unparen(u.X).(*ast.CallExpr)
	return ok && c.retentionCall(call)
}

// frameState is the per-path state of each tracked frame group. All
// four facts are "may" facts OR'd at joins: outstanding means some
// path reaching here used the frame with Release still due (a frame
// bound and discharged wholly inside one branch contributes nothing to
// the joined state, so the untaken branch cannot mask or fake a leak);
// released and dead likewise record that some path released or
// transferred the frame, arming the use-after-release checks, and sent
// that the release was a SendFrame, for the diagnostics' wording.
type frameState struct {
	outstanding map[int]bool
	released    map[int]bool
	dead        map[int]bool
	sent        map[int]bool
}

func newFrameState() *frameState {
	return &frameState{
		outstanding: map[int]bool{},
		released:    map[int]bool{},
		dead:        map[int]bool{},
		sent:        map[int]bool{},
	}
}

func (s *frameState) Clone() driver.FlowState {
	n := newFrameState()
	n.CopyFrom(s)
	return n
}

func (s *frameState) CopyFrom(src driver.FlowState) {
	o := src.(*frameState)
	s.outstanding = cloneSet(o.outstanding)
	s.released = cloneSet(o.released)
	s.dead = cloneSet(o.dead)
	s.sent = cloneSet(o.sent)
}

func (s *frameState) Join(other driver.FlowState) {
	o := other.(*frameState)
	orInto(s.outstanding, o.outstanding) // a leak on any path is a leak
	orInto(s.released, o.released)       // a release on any path arms use-after
	orInto(s.dead, o.dead)               // any transfer ends the obligation
	orInto(s.sent, o.sent)
}

func cloneSet(m map[int]bool) map[int]bool {
	n := make(map[int]bool, len(m))
	for k, v := range m {
		n[k] = v
	}
	return n
}

func orInto(dst, src map[int]bool) {
	for k, v := range src {
		if v {
			dst[k] = true
		}
	}
}

// srcKind distinguishes where a tracked buffer was acquired, purely for
// diagnostic wording: the ownership rules are identical.
type srcKind int

const (
	srcRecv  srcKind = iota // Comm.Recv / Comm.RecvTimeout, released by Comm.Release
	srcPool                 // framePool.get, released by framePool.put
	srcFrame                // Comm.Frame, sent by Comm.SendFrame or released by Comm.Release
)

type checker struct {
	pass *driver.Pass
	// groups maps a variable to its frame group; aliases share a group.
	groups map[types.Object]int
	names  map[int]string
	origin map[int]srcKind
	next   int
	// deferred marks groups with a deferred Release. A defer discharges
	// the obligation at every later return, so it is a property of the
	// group, not of one path: defers sit next to the binding in practice.
	deferred map[int]bool
}

func checkFunc(pass *driver.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass, groups: map[types.Object]int{}, names: map[int]string{}, origin: map[int]srcKind{}, deferred: map[int]bool{}}
	w := &driver.FlowWalker{
		EvalExpr:   func(e ast.Expr, fs driver.FlowState) { c.evalExpr(e, fs.(*frameState)) },
		EvalAssign: func(a *ast.AssignStmt, fs driver.FlowState) { c.evalAssign(a, fs.(*frameState)) },
		EvalDefer:  func(call *ast.CallExpr, fs driver.FlowState) { c.evalDefer(call, fs.(*frameState)) },
		AtReturn: func(pos token.Pos, ret *ast.ReturnStmt, fs driver.FlowState) {
			s := fs.(*frameState)
			for _, g := range c.liveGroups() {
				if s.outstanding[g] && !s.dead[g] && !c.deferred[g] {
					switch c.origin[g] {
					case srcPool:
						c.pass.Reportf(pos, "buffer %q from framePool.get is used on this path but never put back: the pooled buffer leaks to the garbage collector instead of the pool", c.names[g])
					case srcFrame:
						c.pass.Reportf(pos, "frame %q from Comm.Frame is used on this path but never sent or Released: the pooled buffer leaks to the garbage collector instead of the frame pool", c.names[g])
					default:
						c.pass.Reportf(pos, "frame %q from Recv is used on this path but never Released: the pooled buffer leaks back to the garbage collector instead of the frame pool", c.names[g])
					}
					delete(s.outstanding, g) // one report per path suffices
				}
			}
		},
	}
	w.Walk(body, newFrameState())
}

func (c *checker) liveGroups() []int {
	seen := map[int]bool{}
	var out []int
	for _, g := range c.groups {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

// isMethodOn reports whether call is a method call with one of the given
// names on a value whose named type is typeName.
func (c *checker) isMethodOn(call *ast.CallExpr, typeName string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	match := ""
	for _, n := range names {
		if sel.Sel.Name == n {
			match = n
		}
	}
	if match == "" {
		return "", false
	}
	t := c.pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != typeName {
		return "", false
	}
	return match, true
}

// acquireCall reports whether call mints a tracked buffer, and from
// which source.
func (c *checker) acquireCall(call *ast.CallExpr) (srcKind, bool) {
	if _, ok := c.isMethodOn(call, "Comm", "Recv", "RecvTimeout"); ok {
		return srcRecv, true
	}
	if _, ok := c.isMethodOn(call, "framePool", "get"); ok {
		return srcPool, true
	}
	if _, ok := c.isMethodOn(call, "Comm", "Frame"); ok {
		return srcFrame, true
	}
	return 0, false
}

// sendCall reports whether call is Comm.SendFrame(dest, tag, buf), the
// transfer point of a sender's frame.
func (c *checker) sendCall(call *ast.CallExpr) bool {
	if len(call.Args) != 3 {
		return false
	}
	_, ok := c.isMethodOn(call, "Comm", "SendFrame")
	return ok
}

// releaseCall reports whether call is a release site (Comm.Release or
// framePool.put with a single argument).
func (c *checker) releaseCall(call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	if _, ok := c.isMethodOn(call, "Comm", "Release"); ok {
		return true
	}
	if _, ok := c.isMethodOn(call, "framePool", "put"); ok {
		return true
	}
	return false
}

// frameGroup resolves e (through parens and slicing) to the frame group
// it aliases, or -1.
func (c *checker) frameGroup(e ast.Expr) int {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			id, ok := e.(*ast.Ident)
			if !ok {
				return -1
			}
			obj := c.pass.TypesInfo.Uses[id]
			if obj == nil {
				return -1
			}
			if g, ok := c.groups[obj]; ok {
				return g
			}
			return -1
		}
	}
}

// use marks a read of the group, reporting use-after-release.
func (c *checker) use(g int, pos token.Pos, st *frameState) {
	if g < 0 {
		return
	}
	if st.released[g] {
		if st.sent[g] {
			c.pass.Reportf(pos, "frame %q used after SendFrame: the receiver owns it now and may already have released it to an unrelated Frame", c.names[g])
		} else if c.origin[g] == srcPool {
			c.pass.Reportf(pos, "buffer %q used after put: the pool may already have handed its bytes to an unrelated get", c.names[g])
		} else {
			c.pass.Reportf(pos, "frame %q used after Release: the pool may already have handed its bytes to an unrelated Send", c.names[g])
		}
		return
	}
	st.outstanding[g] = true
}

// transfer ends the obligation: ownership visibly moved elsewhere.
func (c *checker) transfer(g int, pos token.Pos, st *frameState) {
	if g < 0 {
		return
	}
	if st.released[g] {
		if st.sent[g] {
			c.pass.Reportf(pos, "frame %q escapes after SendFrame: the receiver owns it now, so this would alias another rank's frame", c.names[g])
		} else if c.origin[g] == srcPool {
			c.pass.Reportf(pos, "buffer %q escapes after put: the receiver would alias recycled pool memory", c.names[g])
		} else {
			c.pass.Reportf(pos, "frame %q escapes after Release: the receiver would alias recycled pool memory", c.names[g])
		}
	}
	st.dead[g] = true
	delete(st.outstanding, g)
}

func (c *checker) evalExpr(e ast.Expr, st *frameState) {
	switch e := e.(type) {
	case nil:
		return
	case *ast.CallExpr:
		c.evalCall(e, st)
	case *ast.Ident:
		c.transfer(c.frameGroup(e), e.Pos(), st)
	case *ast.SliceExpr:
		// A bare subslice outside a recognized copying context escapes
		// conservatively only via its enclosing expression; slicing
		// itself is a use.
		c.use(c.frameGroup(e.X), e.Pos(), st)
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			c.evalExpr(idx, st)
		}
	case *ast.IndexExpr:
		c.use(c.frameGroup(e.X), e.Pos(), st)
		c.evalExpr(e.Index, st)
	case *ast.FuncLit:
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if g := c.frameGroup(id); g >= 0 {
					c.transfer(g, id.Pos(), st)
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

func (c *checker) evalCall(call *ast.CallExpr, st *frameState) {
	// A send hands a tracked buffer on, discharging it as a release does.
	if c.sendCall(call) {
		for _, a := range call.Args[:2] {
			c.evalExpr(a, st)
		}
		if g := c.frameGroup(call.Args[2]); g >= 0 {
			if st.released[g] {
				c.pass.Reportf(call.Pos(), "frame %q sent after it was already sent or Released: two owners would share one buffer", c.names[g])
			}
			st.released[g], st.sent[g] = true, true
			delete(st.outstanding, g)
			return
		}
	}

	// A release on a tracked buffer discharges it (twice is an error).
	if c.releaseCall(call) {
		if g := c.frameGroup(call.Args[0]); g >= 0 {
			if st.released[g] {
				if st.sent[g] {
					c.pass.Reportf(call.Pos(), "frame %q Released after SendFrame: the receiver owns it now", c.names[g])
				} else if c.origin[g] == srcPool {
					c.pass.Reportf(call.Pos(), "buffer %q put twice: the pool would hand the same buffer to two callers", c.names[g])
				} else {
					c.pass.Reportf(call.Pos(), "frame %q Released twice: the pool would hand the same buffer to two Sends", c.names[g])
				}
			}
			st.released[g] = true
			delete(st.outstanding, g)
			return
		}
	}

	// Type conversions (string(data), []byte(data)) copy: a use.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		for _, a := range call.Args {
			if g := c.frameGroup(a); g >= 0 {
				c.use(g, a.Pos(), st)
				continue
			}
			c.evalExpr(a, st)
		}
		return
	}

	// Copying builtins are uses; appending a slice header is a transfer.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap", "copy":
			for _, a := range call.Args {
				if g := c.frameGroup(a); g >= 0 {
					c.use(g, a.Pos(), st)
					continue
				}
				c.evalExpr(a, st)
			}
			return
		case "append":
			for i, a := range call.Args {
				g := c.frameGroup(a)
				if g < 0 {
					c.evalExpr(a, st)
					continue
				}
				if i > 0 && call.Ellipsis == token.NoPos {
					// append(list, frame): the header itself is stored.
					c.transfer(g, a.Pos(), st)
				} else {
					c.use(g, a.Pos(), st)
				}
			}
			return
		}
	}

	// Any other call receiving the frame (or a subslice) transfers
	// ownership to the callee.
	c.evalExpr(call.Fun, st)
	for _, a := range call.Args {
		ae := a
		for {
			if p, ok := ae.(*ast.ParenExpr); ok {
				ae = p.X
				continue
			}
			break
		}
		if g := c.frameGroup(ae); g >= 0 {
			c.transfer(g, ae.Pos(), st)
			continue
		}
		c.evalExpr(a, st)
	}
}

func (c *checker) evalAssign(a *ast.AssignStmt, st *frameState) {
	// New frame: x, ... := comm.Recv(...) / RecvTimeout(...), or a pool
	// draw x := frames.get(n).
	if len(a.Rhs) == 1 {
		if call, ok := a.Rhs[0].(*ast.CallExpr); ok {
			if kind, ok := c.acquireCall(call); ok {
				for _, arg := range call.Args {
					c.evalExpr(arg, st)
				}
				if id, ok := a.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					obj := c.defOrUse(id)
					if obj != nil {
						g := c.next
						c.next++
						c.groups[obj] = g
						c.names[g] = id.Name
						c.origin[g] = kind
					}
				}
				for _, l := range a.Lhs[1:] {
					c.evalExpr(l, st)
				}
				return
			}
		}
	}

	// Alias: w := frame, w := frame[i:j] or w = append(frame, ...).
	if len(a.Lhs) == 1 && len(a.Rhs) == 1 {
		if id, ok := a.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if g := c.appendedGroup(a.Rhs[0], st); g >= 0 {
				if obj := c.defOrUse(id); obj != nil {
					c.groups[obj] = g
				}
				return
			}
			if g := c.frameGroup(a.Rhs[0]); g >= 0 {
				c.use(g, a.Rhs[0].Pos(), st)
				if obj := c.defOrUse(id); obj != nil {
					c.groups[obj] = g
				}
				return
			}
		}
	}

	for _, e := range a.Rhs {
		c.evalExpr(e, st)
	}
	for _, e := range a.Lhs {
		if id, ok := e.(*ast.Ident); ok {
			// Rebinding a variable drops its alias relationship.
			if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
				delete(c.groups, obj)
			}
			if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
				delete(c.groups, obj)
			}
			continue
		}
		c.evalExpr(e, st)
	}
}

// appendedGroup resolves append(frame, ...) to frame's group, evaluating
// the appended arguments, or returns -1. The result is the frame filled
// in place, or its bytes moved to a fresh array: what must be sent or
// released either way.
func (c *checker) appendedGroup(e ast.Expr, st *frameState) int {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return -1
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return -1
	}
	if _, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return -1
	}
	g := c.frameGroup(call.Args[0])
	if g < 0 {
		return -1
	}
	c.use(g, call.Args[0].Pos(), st)
	for _, a := range call.Args[1:] {
		if h := c.frameGroup(a); h >= 0 {
			c.use(h, a.Pos(), st)
			continue
		}
		c.evalExpr(a, st)
	}
	return g
}

func (c *checker) defOrUse(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

func (c *checker) evalDefer(call *ast.CallExpr, st *frameState) {
	if c.releaseCall(call) {
		if g := c.frameGroup(call.Args[0]); g >= 0 {
			// Deferred release satisfies the obligation at every later
			// return without forbidding uses in between.
			c.deferred[g] = true
		}
	}
}
