package pylite

import "fmt"

// ---- AST ----

type pexpr interface{ pexprNode() }

// eConst is a literal: a number, string, True, False or None, boxed once
// at parse time (a number is held unboxed too).
type eConst struct{ v val }

// eName is a name, read or bound. resolve fixes where it lives: local
// is its slot in the innermost function frame that binds it (-1 at
// module scope or when declared global), outer the enclosing frames
// that bind it, innermost first. Every other read goes to the global
// slot table and then to builtin. gslot caches the name's global slot
// (-1: none yet), valid while ggen equals its Interp's gen.
type eName struct {
	name    string
	local   int
	outer   []upvar
	builtin Value
	gslot   int
	ggen    uint64
}

// upvar is a slot in the frame depth levels up from the current one.
type upvar struct{ depth, slot int }

type eBin struct {
	op   opcode
	l, r pexpr
}
type eUn struct {
	op opcode // opNeg or opNot
	x  pexpr
}
type eCall struct {
	fn   pexpr
	args []pexpr
}
type eSub struct {
	obj pexpr
	idx pexpr
}
type eSlice struct {
	obj    pexpr
	lo, hi pexpr // nil = open end
}
type eList struct{ elems []pexpr }
type eDict struct{ keys, vals []pexpr }
type eAttr struct {
	obj  pexpr
	name string
}
type eLambda struct{ fn *fnCode }

// fnCode is a def or lambda with its scope resolved: a call's frame has
// nslots slots, the params first, then every other name the body binds.
type fnCode struct {
	name   string
	params []string
	nslots int
	body   []pstmt
	expr   pexpr // lambda body
}

func (*eConst) pexprNode()  {}
func (*eName) pexprNode()   {}
func (*eBin) pexprNode()    {}
func (*eUn) pexprNode()     {}
func (*eCall) pexprNode()   {}
func (*eSub) pexprNode()    {}
func (*eSlice) pexprNode()  {}
func (*eList) pexprNode()   {}
func (*eDict) pexprNode()   {}
func (*eAttr) pexprNode()   {}
func (*eLambda) pexprNode() {}

type pstmt interface{ pstmtNode() }

type sExpr struct{ x pexpr }
type sAssign struct {
	target pexpr // eName, eSub, or eAttr
	aug    bool  // target op= value
	op     opcode
	value  pexpr
}
type sIf struct {
	cond      pexpr
	then, els []pstmt
}
type sWhile struct {
	cond pexpr
	body []pstmt
}
type sFor struct {
	vars []*eName
	seq  pexpr
	rng  *eCall // seq, when it is a call of the name range with one loop variable
	body []pstmt
}
type sDef struct {
	target *eName
	fn     *fnCode
}
type sReturn struct{ x pexpr } // x may be nil
type sBreak struct{}
type sContinue struct{}
type sPass struct{}
type sGlobal struct{ names []string }
type sImport struct{ target *eName }
type sDel struct{ target pexpr }

func (*sExpr) pstmtNode()     {}
func (*sAssign) pstmtNode()   {}
func (*sIf) pstmtNode()       {}
func (*sWhile) pstmtNode()    {}
func (*sFor) pstmtNode()      {}
func (*sDef) pstmtNode()      {}
func (*sReturn) pstmtNode()   {}
func (*sBreak) pstmtNode()    {}
func (*sContinue) pstmtNode() {}
func (*sPass) pstmtNode()     {}
func (*sGlobal) pstmtNode()   {}
func (*sImport) pstmtNode()   {}
func (*sDel) pstmtNode()      {}

// ---- parser ----

// pparser reads tokens, noting what an expression may keep (see Expr).
type pparser struct {
	toks  []token
	pos   int
	keeps bool
	calls []*eName
}

func parseModule(src string) ([]pstmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &pparser{toks: toks}
	var stmts []pstmt
	for p.cur().kind != tEOF {
		if p.cur().kind == tNewline {
			p.pos++
			continue
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s...)
	}
	resolveModule(stmts, nil)
	return stmts, nil
}

// Expr is a parsed expression. keeps is set when evaluating it may store
// what it reads in the interpreter: it reads an attribute (a method
// call), makes a lambda or calls anything but a storeless builtin; calls
// are the builtins it calls, which a global of the same name displaces.
type Expr struct {
	x     pexpr
	keeps bool
	calls []*eName
}

// parseExpr parses a single expression (for ParseExpr).
func parseExpr(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &pparser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tNewline {
		p.pos++
	}
	if p.cur().kind != tEOF {
		return nil, fmt.Errorf("pylite: line %d: trailing tokens after expression", p.cur().line)
	}
	resolveModule(nil, e)
	return &Expr{x: e, keeps: p.keeps, calls: p.calls}, nil
}

func newName(name string) *eName {
	return &eName{name: name, local: -1, gslot: -1, builtin: pyBuiltins[name]}
}

func (p *pparser) cur() token { return p.toks[p.pos] }

func (p *pparser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *pparser) eat(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *pparser) expect(kind tokKind, text, what string) error {
	if !p.eat(kind, text) {
		return fmt.Errorf("pylite: line %d: expected %s, found %q", p.cur().line, what, p.cur().text)
	}
	return nil
}

// stmt parses one logical statement; simple statements may expand to
// multiple (a; b on one line is not supported, so always length 1).
func (p *pparser) stmt() ([]pstmt, error) {
	t := p.cur()
	if t.kind == tKeyword {
		switch t.text {
		case "if":
			s, err := p.ifStmt()
			return wrap(s, err)
		case "while":
			p.pos++
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			body, err := p.suite()
			if err != nil {
				return nil, err
			}
			return []pstmt{&sWhile{cond: cond, body: body}}, nil
		case "for":
			p.pos++
			var vars []*eName
			for {
				if p.cur().kind != tName {
					return nil, fmt.Errorf("pylite: line %d: expected loop variable", p.cur().line)
				}
				vars = append(vars, newName(p.cur().text))
				p.pos++
				if !p.eat(tOp, ",") {
					break
				}
			}
			if err := p.expect(tKeyword, "in", "'in'"); err != nil {
				return nil, err
			}
			seq, err := p.expr()
			if err != nil {
				return nil, err
			}
			body, err := p.suite()
			if err != nil {
				return nil, err
			}
			st := &sFor{vars: vars, seq: seq, body: body}
			if c, ok := seq.(*eCall); ok && len(vars) == 1 {
				if n, ok := c.fn.(*eName); ok && n.name == "range" {
					st.rng = c
				}
			}
			return []pstmt{st}, nil
		case "def":
			p.pos++
			if p.cur().kind != tName {
				return nil, fmt.Errorf("pylite: line %d: expected function name", p.cur().line)
			}
			name := p.cur().text
			p.pos++
			if err := p.expect(tOp, "(", "("); err != nil {
				return nil, err
			}
			var params []string
			for !p.at(tOp, ")") {
				if p.cur().kind != tName {
					return nil, fmt.Errorf("pylite: line %d: expected parameter name", p.cur().line)
				}
				params = append(params, p.cur().text)
				p.pos++
				if !p.eat(tOp, ",") {
					break
				}
			}
			if err := p.expect(tOp, ")", ")"); err != nil {
				return nil, err
			}
			body, err := p.suite()
			if err != nil {
				return nil, err
			}
			return []pstmt{&sDef{target: newName(name), fn: &fnCode{name: name, params: params, body: body}}}, nil
		case "return":
			p.pos++
			var x pexpr
			if !p.at(tNewline, "") && p.cur().kind != tEOF && p.cur().kind != tDedent {
				var err error
				x, err = p.expr()
				if err != nil {
					return nil, err
				}
			}
			p.eat(tNewline, "")
			return []pstmt{&sReturn{x: x}}, nil
		case "break":
			p.pos++
			p.eat(tNewline, "")
			return []pstmt{&sBreak{}}, nil
		case "continue":
			p.pos++
			p.eat(tNewline, "")
			return []pstmt{&sContinue{}}, nil
		case "pass":
			p.pos++
			p.eat(tNewline, "")
			return []pstmt{&sPass{}}, nil
		case "global":
			p.pos++
			var names []string
			for p.cur().kind == tName {
				names = append(names, p.cur().text)
				p.pos++
				if !p.eat(tOp, ",") {
					break
				}
			}
			p.eat(tNewline, "")
			return []pstmt{&sGlobal{names: names}}, nil
		case "import":
			p.pos++
			if p.cur().kind != tName {
				return nil, fmt.Errorf("pylite: line %d: expected module name", p.cur().line)
			}
			name := p.cur().text
			p.pos++
			p.eat(tNewline, "")
			return []pstmt{&sImport{target: newName(name)}}, nil
		case "del":
			p.pos++
			target, err := p.expr()
			if err != nil {
				return nil, err
			}
			p.eat(tNewline, "")
			return []pstmt{&sDel{target: target}}, nil
		}
	}
	// Expression or assignment.
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if op, aug := augOps[p.cur().text]; p.cur().kind == tOp && (aug || p.cur().text == "=") {
		p.pos++
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.eat(tNewline, "")
		switch x.(type) {
		case *eName, *eSub, *eAttr:
			return []pstmt{&sAssign{target: x, aug: aug, op: op, value: rhs}}, nil
		}
		return nil, fmt.Errorf("pylite: cannot assign to this expression")
	}
	p.eat(tNewline, "")
	return []pstmt{&sExpr{x: x}}, nil
}

func wrap(s pstmt, err error) ([]pstmt, error) {
	if err != nil {
		return nil, err
	}
	return []pstmt{s}, nil
}

func (p *pparser) ifStmt() (pstmt, error) {
	p.pos++ // if / elif
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	then, err := p.suite()
	if err != nil {
		return nil, err
	}
	node := &sIf{cond: cond, then: then}
	if p.at(tKeyword, "elif") {
		els, err := p.ifStmt()
		if err != nil {
			return nil, err
		}
		node.els = []pstmt{els}
	} else if p.eat(tKeyword, "else") {
		node.els, err = p.suite()
		if err != nil {
			return nil, err
		}
	}
	return node, nil
}

// suite parses ": NEWLINE INDENT stmts DEDENT" or ": simple-stmt".
func (p *pparser) suite() ([]pstmt, error) {
	if err := p.expect(tOp, ":", ":"); err != nil {
		return nil, err
	}
	if p.eat(tNewline, "") {
		if err := p.expect(tIndent, "", "indented block"); err != nil {
			return nil, err
		}
		var stmts []pstmt
		for !p.at(tDedent, "") && p.cur().kind != tEOF {
			if p.eat(tNewline, "") {
				continue
			}
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, s...)
		}
		p.eat(tDedent, "")
		return stmts, nil
	}
	// Inline suite: single simple statement.
	return p.stmt()
}

// ---- expression parsing (precedence climbing) ----

func (p *pparser) expr() (pexpr, error) { return p.orExpr() }

func (p *pparser) orExpr() (pexpr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.eat(tKeyword, "or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &eBin{op: opOr, l: l, r: r}
	}
	return l, nil
}

func (p *pparser) andExpr() (pexpr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.eat(tKeyword, "and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &eBin{op: opAnd, l: l, r: r}
	}
	return l, nil
}

func (p *pparser) notExpr() (pexpr, error) {
	if p.eat(tKeyword, "not") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &eUn{op: opNot, x: x}, nil
	}
	return p.cmpExpr()
}

func (p *pparser) cmpExpr() (pexpr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		op := binOps[t.text]
		if !(t.kind == tOp && op >= opLt && op <= opNe || t.kind == tKeyword && op == opIn) {
			return l, nil
		}
		p.pos++
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		l = &eBin{op: op, l: l, r: r}
	}
}

func (p *pparser) addExpr() (pexpr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tOp, "+") || p.at(tOp, "-") {
		op := binOps[p.cur().text]
		p.pos++
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &eBin{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *pparser) mulExpr() (pexpr, error) {
	l, err := p.unExpr()
	if err != nil {
		return nil, err
	}
	for p.at(tOp, "*") || p.at(tOp, "/") || p.at(tOp, "//") || p.at(tOp, "%") {
		op := binOps[p.cur().text]
		p.pos++
		r, err := p.unExpr()
		if err != nil {
			return nil, err
		}
		l = &eBin{op: op, l: l, r: r}
	}
	return l, nil
}

func (p *pparser) unExpr() (pexpr, error) {
	if p.at(tOp, "-") {
		p.pos++
		x, err := p.unExpr()
		if err != nil {
			return nil, err
		}
		return &eUn{op: opNeg, x: x}, nil
	}
	if p.at(tOp, "+") {
		p.pos++
		return p.unExpr()
	}
	return p.powExpr()
}

func (p *pparser) powExpr() (pexpr, error) {
	l, err := p.postfix()
	if err != nil {
		return nil, err
	}
	if p.at(tOp, "**") {
		p.pos++
		r, err := p.unExpr() // right-associative
		if err != nil {
			return nil, err
		}
		return &eBin{op: opPow, l: l, r: r}, nil
	}
	return l, nil
}

func (p *pparser) postfix() (pexpr, error) {
	x, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tOp, "("):
			p.pos++
			var args []pexpr
			for !p.at(tOp, ")") {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.eat(tOp, ",") {
					break
				}
			}
			if err := p.expect(tOp, ")", ")"); err != nil {
				return nil, err
			}
			if n, ok := x.(*eName); ok && storeless[n.name] {
				p.calls = append(p.calls, n)
			} else {
				p.keeps = true
			}
			x = &eCall{fn: x, args: args}
		case p.at(tOp, "["):
			p.pos++
			var lo, hi pexpr
			if !p.at(tOp, ":") {
				lo, err = p.expr()
				if err != nil {
					return nil, err
				}
			}
			if p.eat(tOp, ":") {
				if !p.at(tOp, "]") {
					hi, err = p.expr()
					if err != nil {
						return nil, err
					}
				}
				if err := p.expect(tOp, "]", "]"); err != nil {
					return nil, err
				}
				x = &eSlice{obj: x, lo: lo, hi: hi}
			} else {
				if err := p.expect(tOp, "]", "]"); err != nil {
					return nil, err
				}
				x = &eSub{obj: x, idx: lo}
			}
		case p.at(tOp, "."):
			p.pos++
			if p.cur().kind != tName {
				return nil, fmt.Errorf("pylite: line %d: expected attribute name", p.cur().line)
			}
			x, p.keeps = &eAttr{obj: x, name: p.cur().text}, true
			p.pos++
		default:
			return x, nil
		}
	}
}

func (p *pparser) atom() (pexpr, error) {
	t := p.cur()
	switch {
	case t.kind == tInt:
		p.pos++
		var v int64
		if _, err := fmt.Sscanf(t.text, "%d", &v); err != nil {
			return nil, fmt.Errorf("pylite: line %d: bad int %q", t.line, t.text)
		}
		return &eConst{v: unbox(v)}, nil
	case t.kind == tFloat:
		p.pos++
		var v float64
		if _, err := fmt.Sscanf(t.text, "%g", &v); err != nil {
			return nil, fmt.Errorf("pylite: line %d: bad float %q", t.line, t.text)
		}
		return &eConst{v: unbox(v)}, nil
	case t.kind == tStr:
		p.pos++
		return &eConst{v: unbox(t.text)}, nil
	case t.kind == tKeyword && t.text == "True":
		p.pos++
		return &eConst{v: unbox(true)}, nil
	case t.kind == tKeyword && t.text == "False":
		p.pos++
		return &eConst{v: unbox(false)}, nil
	case t.kind == tKeyword && t.text == "None":
		p.pos++
		return &eConst{v: none}, nil
	case t.kind == tKeyword && t.text == "lambda":
		p.pos++
		var params []string
		for p.cur().kind == tName {
			params = append(params, p.cur().text)
			p.pos++
			if !p.eat(tOp, ",") {
				break
			}
		}
		if err := p.expect(tOp, ":", ":"); err != nil {
			return nil, err
		}
		body, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.keeps = true
		return &eLambda{fn: &fnCode{name: "<lambda>", params: params, expr: body}}, nil
	case t.kind == tName:
		p.pos++
		return newName(t.text), nil
	case t.kind == tOp && t.text == "(":
		p.pos++
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tOp, ")", ")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.kind == tOp && t.text == "[":
		p.pos++
		lst := &eList{}
		for !p.at(tOp, "]") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			lst.elems = append(lst.elems, e)
			if !p.eat(tOp, ",") {
				break
			}
		}
		if err := p.expect(tOp, "]", "]"); err != nil {
			return nil, err
		}
		return lst, nil
	case t.kind == tOp && t.text == "{":
		p.pos++
		d := &eDict{}
		for !p.at(tOp, "}") {
			k, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tOp, ":", ":"); err != nil {
				return nil, err
			}
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.keys = append(d.keys, k)
			d.vals = append(d.vals, v)
			if !p.eat(tOp, ",") {
				break
			}
		}
		if err := p.expect(tOp, "}", "}"); err != nil {
			return nil, err
		}
		return d, nil
	}
	return nil, fmt.Errorf("pylite: line %d: unexpected token %q", t.line, t.text)
}
