// Package jlite implements an embedded Julia-subset interpreter — the
// fourth numeric language on the interlanguage engine layer, standing in
// for embedding libjulia the way pylite and rlite stand in for CPython
// and libR (paper §III-C, §IV). The surface is the Julia-flavoured core
// used in numeric glue: Int64/Float64 scalars, 1-based indexed vectors,
// `function…end` definitions, `for…end`/`while…end` loops, and
// broadcast-style elementwise operators (`.+ .- .* ./ .^`) over vectors.
//
// Blob bulk data binds as Vec, a zero-copy mutable 1-based view over the
// packed bytes (see vec.go), mirroring pylite's SLIRP-style binding:
// element data never renders as text crossing the language boundary, and
// in-place writes enforce exact representability under the element kind.
// Arrays born inside the interpreter use the same packed form while their
// elements are all Int64 or all Float64 (a column), so broadcasts and
// sums run as typed loops; a column unpacks into boxed elements at the
// first operation it cannot hold and at its first scalar read (v[i],
// iteration), and every result, error and rendering reads as it would
// boxed.
// Parsing is compile-once through internal/memo, like every other
// embedded interpreter in this repo.
package jlite

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tInt
	tFloat
	tStr
	tName
	tOp
	tNewline
)

type token struct {
	kind tokKind
	text string
	line int
}

var jKeywords = map[string]bool{
	"function": true, "end": true, "for": true, "while": true, "if": true,
	"elseif": true, "else": true, "return": true, "break": true,
	"continue": true, "in": true, "true": true, "false": true,
	"nothing": true,
}

// lex tokenises Julia-like source. Newlines are statement separators
// except inside parentheses and brackets, where expressions continue.
func lex(src string) ([]token, error) {
	var toks []token
	i, n, line := 0, len(src), 1
	depth := 0 // () and [] nesting suppresses newline tokens
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			if depth == 0 {
				toks = append(toks, token{kind: tNewline, line: line})
			}
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '"':
			i++
			var b strings.Builder
			closed := false
			for i < n {
				if src[i] == '\\' && i+1 < n {
					switch src[i+1] {
					case 'n':
						b.WriteByte('\n')
					case 't':
						b.WriteByte('\t')
					case '\\':
						b.WriteByte('\\')
					case '"':
						b.WriteByte('"')
					default:
						b.WriteByte(src[i+1])
					}
					i += 2
					continue
				}
				if src[i] == '"' {
					closed = true
					i++
					break
				}
				if src[i] == '\n' {
					line++
				}
				b.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("jlite: line %d: unterminated string", line)
			}
			toks = append(toks, token{kind: tStr, text: b.String(), line: line})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			start := i
			isFloat := false
			for i < n && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			// A decimal point only when followed by a digit, so `1.+2`
			// lexes as 1 .+ 2 (the broadcast operator), not a float.
			if i+1 < n && src[i] == '.' && src[i+1] >= '0' && src[i+1] <= '9' {
				isFloat = true
				i++
				for i < n && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			if i < n && (src[i] == 'e' || src[i] == 'E') {
				isFloat = true
				i++
				if i < n && (src[i] == '+' || src[i] == '-') {
					i++
				}
				for i < n && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			kind := tInt
			if isFloat {
				kind = tFloat
			}
			toks = append(toks, token{kind: kind, text: src[start:i], line: line})
		case isJNameStart(c):
			start := i
			for i < n && isJNamePart(src[i]) {
				i++
			}
			// Trailing ! is part of mutating-function names (push!).
			if i < n && src[i] == '!' {
				i++
			}
			toks = append(toks, token{kind: tName, text: src[start:i], line: line})
		default:
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch {
			case c == '.' && i+1 < n && strings.IndexByte("+-*/^", src[i+1]) >= 0:
				toks = append(toks, token{kind: tOp, text: two, line: line})
				i += 2
			case two == "==" || two == "!=" || two == "<=" || two == ">=" ||
				two == "&&" || two == "||" ||
				two == "+=" || two == "-=" || two == "*=" || two == "/=":
				toks = append(toks, token{kind: tOp, text: two, line: line})
				i += 2
			default:
				switch c {
				case '(', '[':
					depth++
					toks = append(toks, token{kind: tOp, text: string(c), line: line})
					i++
				case ')', ']':
					depth--
					toks = append(toks, token{kind: tOp, text: string(c), line: line})
					i++
				case '+', '-', '*', '/', '^', '%', '<', '>', '!', '=', ',', ';', ':':
					toks = append(toks, token{kind: tOp, text: string(c), line: line})
					i++
				default:
					return nil, fmt.Errorf("jlite: line %d: unexpected character %q", line, c)
				}
			}
		}
	}
	toks = append(toks, token{kind: tEOF, line: line})
	return toks, nil
}

func isJNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isJNamePart(c byte) bool {
	return isJNameStart(c) || (c >= '0' && c <= '9')
}

// ---- AST ----

type jexpr interface{ jexprNode() }

type jInt struct{ v int64 }
type jFloat struct{ v float64 }
type jStrLit struct{ v string }
type jBool struct{ v bool }
type jNothing struct{}
type jName struct{ name string }
type jBin struct {
	op   string
	l, r jexpr
}
type jUn struct {
	op string
	x  jexpr
}
type jCall struct {
	fn   jexpr
	args []jexpr
}
type jIndex struct {
	obj jexpr
	idx jexpr
}
type jArrLit struct{ elems []jexpr }

func (*jInt) jexprNode()     {}
func (*jFloat) jexprNode()   {}
func (*jStrLit) jexprNode()  {}
func (*jBool) jexprNode()    {}
func (*jNothing) jexprNode() {}
func (*jName) jexprNode()    {}
func (*jBin) jexprNode()     {}
func (*jUn) jexprNode()      {}
func (*jCall) jexprNode()    {}
func (*jIndex) jexprNode()   {}
func (*jArrLit) jexprNode()  {}

type jstmt interface{ jstmtNode() }

type sExpr struct{ x jexpr }
type sAssign struct {
	target jexpr // *jName or *jIndex
	op     string
	value  jexpr
}
type sFunc struct {
	name   string
	params []string
	body   []jstmt
}
type sFor struct {
	v    string
	seq  jexpr
	body []jstmt
}
type sWhile struct {
	cond jexpr
	body []jstmt
}
type sIf struct {
	conds  []jexpr
	blocks [][]jstmt
	els    []jstmt
}
type sReturn struct{ x jexpr } // x nil means `return` (nothing)
type sBreak struct{}
type sContinue struct{}

func (*sExpr) jstmtNode()     {}
func (*sAssign) jstmtNode()   {}
func (*sFunc) jstmtNode()     {}
func (*sFor) jstmtNode()      {}
func (*sWhile) jstmtNode()    {}
func (*sIf) jstmtNode()       {}
func (*sReturn) jstmtNode()   {}
func (*sBreak) jstmtNode()    {}
func (*sContinue) jstmtNode() {}

// ---- parser ----

// jparser reads tokens, noting what an expression may keep (see Expr).
type jparser struct {
	toks  []token
	pos   int
	keeps bool
	calls []string
}

// parseProgram parses a whole fragment into a statement list.
func parseProgram(src string) ([]jstmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &jparser{toks: toks}
	prog, err := p.block(nil)
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tEOF {
		return nil, fmt.Errorf("jlite: line %d: unexpected %q", p.cur().line, p.cur().text)
	}
	return prog, nil
}

// Expr is a parsed expression. keeps is set when evaluating it may store
// what it reads in the interpreter: it calls a user function, a mutating
// builtin (push!, any name ending in !) or a computed callee; calls are
// the builtins it calls, which a global of the same name displaces.
type Expr struct {
	x     jexpr
	keeps bool
	calls []string
}

// parseExpr parses a single expression (the engine's Expr slot).
func parseExpr(src string) (*Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &jparser{toks: toks}
	p.skipSeps()
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipSeps()
	if p.cur().kind != tEOF {
		return nil, fmt.Errorf("jlite: line %d: unexpected %q after expression", p.cur().line, p.cur().text)
	}
	return &Expr{x: x, keeps: p.keeps, calls: p.calls}, nil
}

func (p *jparser) cur() token  { return p.toks[p.pos] }
func (p *jparser) peek() token { return p.toks[p.pos+1] }

func (p *jparser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *jparser) eat(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *jparser) expect(text string) error {
	if p.cur().text != text || (p.cur().kind != tOp && p.cur().kind != tName) {
		return fmt.Errorf("jlite: line %d: expected %q, found %q", p.cur().line, text, p.cur().text)
	}
	p.pos++
	return nil
}

func (p *jparser) skipSeps() {
	for p.at(tNewline, "") || p.at(tOp, ";") {
		p.pos++
	}
}

func (p *jparser) skipNewlines() {
	for p.at(tNewline, "") {
		p.pos++
	}
}

// atBlockEnd reports whether the current token terminates a block.
func (p *jparser) atBlockEnd(stops []string) bool {
	if p.cur().kind == tEOF {
		return true
	}
	if p.cur().kind != tName {
		return false
	}
	for _, s := range stops {
		if p.cur().text == s {
			return true
		}
	}
	return false
}

// block parses statements until EOF or one of the stop keywords (left
// unconsumed). A nil stops set parses to EOF (the program form).
func (p *jparser) block(stops []string) ([]jstmt, error) {
	var out []jstmt
	for {
		p.skipSeps()
		if p.atBlockEnd(stops) {
			return out, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		// A statement ends at a separator or a block terminator.
		if !p.at(tNewline, "") && !p.at(tOp, ";") && !p.atBlockEnd(stops) {
			return nil, fmt.Errorf("jlite: line %d: unexpected %q after statement", p.cur().line, p.cur().text)
		}
	}
}

var blockStops = []string{"end"}

func (p *jparser) statement() (jstmt, error) {
	t := p.cur()
	if t.kind == tName {
		switch t.text {
		case "function":
			return p.funcStmt()
		case "for":
			return p.forStmt()
		case "while":
			return p.whileStmt()
		case "if":
			return p.ifStmt()
		case "return":
			p.pos++
			if p.at(tNewline, "") || p.at(tOp, ";") || p.atBlockEnd(blockStops) {
				return &sReturn{}, nil
			}
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &sReturn{x: x}, nil
		case "break":
			p.pos++
			return &sBreak{}, nil
		case "continue":
			p.pos++
			return &sContinue{}, nil
		case "end", "elseif", "else":
			return nil, fmt.Errorf("jlite: line %d: %q without a matching block", t.line, t.text)
		}
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tOp {
		switch op := p.cur().text; op {
		case "=", "+=", "-=", "*=", "/=":
			switch x.(type) {
			case *jName, *jIndex:
			default:
				return nil, fmt.Errorf("jlite: line %d: invalid assignment target", p.cur().line)
			}
			p.pos++
			p.skipNewlines()
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &sAssign{target: x, op: op, value: v}, nil
		}
	}
	return &sExpr{x: x}, nil
}

func (p *jparser) funcStmt() (jstmt, error) {
	p.pos++ // function
	if p.cur().kind != tName || jKeywords[p.cur().text] {
		return nil, fmt.Errorf("jlite: line %d: expected function name", p.cur().line)
	}
	f := &sFunc{name: p.cur().text}
	p.pos++
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for !p.at(tOp, ")") {
		if p.cur().kind != tName || jKeywords[p.cur().text] {
			return nil, fmt.Errorf("jlite: line %d: expected parameter name", p.cur().line)
		}
		f.params = append(f.params, p.cur().text)
		p.pos++
		if !p.eat(tOp, ",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.block(blockStops)
	if err != nil {
		return nil, err
	}
	f.body = body
	if err := p.expect("end"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *jparser) forStmt() (jstmt, error) {
	p.pos++ // for
	if p.cur().kind != tName || jKeywords[p.cur().text] {
		return nil, fmt.Errorf("jlite: line %d: expected loop variable", p.cur().line)
	}
	v := p.cur().text
	p.pos++
	if !p.eat(tName, "in") && !p.eat(tOp, "=") {
		return nil, fmt.Errorf("jlite: line %d: expected 'in'", p.cur().line)
	}
	seq, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block(blockStops)
	if err != nil {
		return nil, err
	}
	if err := p.expect("end"); err != nil {
		return nil, err
	}
	return &sFor{v: v, seq: seq, body: body}, nil
}

func (p *jparser) whileStmt() (jstmt, error) {
	p.pos++ // while
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	body, err := p.block(blockStops)
	if err != nil {
		return nil, err
	}
	if err := p.expect("end"); err != nil {
		return nil, err
	}
	return &sWhile{cond: cond, body: body}, nil
}

var ifStops = []string{"end", "elseif", "else"}

func (p *jparser) ifStmt() (jstmt, error) {
	p.pos++ // if / elseif
	node := &sIf{}
	for {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		blk, err := p.block(ifStops)
		if err != nil {
			return nil, err
		}
		node.conds = append(node.conds, cond)
		node.blocks = append(node.blocks, blk)
		if p.eat(tName, "elseif") {
			continue
		}
		break
	}
	if p.eat(tName, "else") {
		blk, err := p.block(blockStops)
		if err != nil {
			return nil, err
		}
		node.els = blk
	}
	if err := p.expect("end"); err != nil {
		return nil, err
	}
	return node, nil
}

// ---- expression grammar, loosest binding first ----

func (p *jparser) expr() (jexpr, error) { return p.orExpr() }

func (p *jparser) binLevel(ops []string, next func() (jexpr, error)) (jexpr, error) {
	l, err := next()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.at(tOp, op) {
				p.pos++
				p.skipNewlines()
				r, err := next()
				if err != nil {
					return nil, err
				}
				l = &jBin{op: op, l: l, r: r}
				matched = true
				break
			}
		}
		if !matched {
			return l, nil
		}
	}
}

func (p *jparser) orExpr() (jexpr, error) {
	return p.binLevel([]string{"||"}, p.andExpr)
}

func (p *jparser) andExpr() (jexpr, error) {
	return p.binLevel([]string{"&&"}, p.cmpExpr)
}

func (p *jparser) cmpExpr() (jexpr, error) {
	return p.binLevel([]string{"==", "!=", "<=", ">=", "<", ">"}, p.rangeExpr)
}

// rangeExpr parses a:b (step-1 inclusive range), binding looser than
// arithmetic so `1:n-1` means 1:(n-1), as in Julia.
func (p *jparser) rangeExpr() (jexpr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.at(tOp, ":") {
		p.pos++
		p.skipNewlines()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &jBin{op: ":", l: l, r: r}, nil
	}
	return l, nil
}

func (p *jparser) addExpr() (jexpr, error) {
	return p.binLevel([]string{"+", "-", ".+", ".-"}, p.mulExpr)
}

func (p *jparser) mulExpr() (jexpr, error) {
	return p.binLevel([]string{"*", "/", "%", ".*", "./"}, p.unaryExpr)
}

func (p *jparser) unaryExpr() (jexpr, error) {
	if p.at(tOp, "-") {
		p.pos++
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &jUn{op: "-", x: x}, nil
	}
	if p.at(tOp, "+") {
		p.pos++
		return p.unaryExpr()
	}
	if p.at(tOp, "!") {
		p.pos++
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &jUn{op: "!", x: x}, nil
	}
	return p.powExpr()
}

func (p *jparser) powExpr() (jexpr, error) {
	l, err := p.postfix()
	if err != nil {
		return nil, err
	}
	if p.at(tOp, "^") || p.at(tOp, ".^") {
		op := p.cur().text
		p.pos++
		r, err := p.unaryExpr() // right-associative
		if err != nil {
			return nil, err
		}
		return &jBin{op: op, l: l, r: r}, nil
	}
	return l, nil
}

func (p *jparser) postfix() (jexpr, error) {
	x, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tOp, "("):
			p.pos++
			if n, ok := x.(*jName); ok && jBuiltins[n.name] != nil && !strings.HasSuffix(n.name, "!") {
				p.calls = append(p.calls, n.name)
			} else {
				p.keeps = true
			}
			call := &jCall{fn: x}
			p.skipNewlines()
			for !p.at(tOp, ")") {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.args = append(call.args, a)
				p.skipNewlines()
				if !p.eat(tOp, ",") {
					break
				}
				p.skipNewlines()
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			x = call
		case p.at(tOp, "["):
			p.pos++
			p.skipNewlines()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			p.skipNewlines()
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &jIndex{obj: x, idx: idx}
		default:
			return x, nil
		}
	}
}

func (p *jparser) atom() (jexpr, error) {
	t := p.cur()
	switch {
	case t.kind == tInt:
		p.pos++
		var v int64
		if _, err := fmt.Sscanf(t.text, "%d", &v); err != nil {
			return nil, fmt.Errorf("jlite: line %d: bad integer %q", t.line, t.text)
		}
		return &jInt{v: v}, nil
	case t.kind == tFloat:
		p.pos++
		var v float64
		if _, err := fmt.Sscanf(t.text, "%g", &v); err != nil {
			return nil, fmt.Errorf("jlite: line %d: bad number %q", t.line, t.text)
		}
		return &jFloat{v: v}, nil
	case t.kind == tStr:
		p.pos++
		return &jStrLit{v: t.text}, nil
	case t.kind == tName:
		switch t.text {
		case "true":
			p.pos++
			return &jBool{v: true}, nil
		case "false":
			p.pos++
			return &jBool{v: false}, nil
		case "nothing":
			p.pos++
			return &jNothing{}, nil
		case "function", "for", "while", "if", "return", "break", "continue",
			"end", "elseif", "else", "in":
			return nil, fmt.Errorf("jlite: line %d: unexpected keyword %q in expression", t.line, t.text)
		}
		p.pos++
		return &jName{name: t.text}, nil
	case t.kind == tOp && t.text == "(":
		p.pos++
		p.skipNewlines()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.skipNewlines()
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.kind == tOp && t.text == "[":
		p.pos++
		lit := &jArrLit{}
		p.skipNewlines()
		for !p.at(tOp, "]") {
			el, err := p.expr()
			if err != nil {
				return nil, err
			}
			lit.elems = append(lit.elems, el)
			p.skipNewlines()
			if !p.eat(tOp, ",") {
				break
			}
			p.skipNewlines()
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		return lit, nil
	}
	return nil, fmt.Errorf("jlite: line %d: unexpected token %q", t.line, t.text)
}
