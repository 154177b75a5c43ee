// Package pylite implements an embedded Python-subset interpreter used as
// the stand-in for linking libpython into the runtime (paper §III-C). The
// paper's mechanism — treating the external interpreter as a native code
// library, constructing a Tcl extension around it, and exposing a
// `python(code, expr)` leaf function to Swift — is reproduced exactly;
// only the interpreter internals are Go instead of CPython via cgo
// (unavailable here). The interpreter supports the imperative core used
// by scientific glue code: numbers, strings, lists, dicts, functions,
// control flow, and a math/statistics builtin surface.
//
// The evaluator walks the parsed AST, which the fragment cache keeps per
// interpreter. A name is a slot, resolved once: a name a def or lambda
// binds is a slot of the call's frame, numbered at parse time, so a call
// allocates that frame and nothing else; a module-scope name is a slot
// of the interpreter's global table, found by name once and then cached
// in the AST node until the table changes shape. Reset empties the
// table, and the cached nodes find their names afresh. An int, float or
// bool is held unboxed, in its slot and through arithmetic, and is
// boxed at most once, when it escapes into a list, a builtin's
// arguments, or the result of EvalExpr; so a scalar loop allocates
// nothing per iteration.
package pylite

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tEOF tokKind = iota
	tNewline
	tIndent
	tDedent
	tName
	tInt
	tFloat
	tStr
	tOp // operators and punctuation
	tKeyword
)

var pyKeywords = map[string]bool{
	"def": true, "return": true, "if": true, "elif": true, "else": true,
	"while": true, "for": true, "in": true, "break": true, "continue": true,
	"pass": true, "and": true, "or": true, "not": true, "True": true,
	"False": true, "None": true, "import": true, "global": true,
	"lambda": true, "del": true,
}

type token struct {
	kind tokKind
	text string
	line int
}

// lex tokenizes source with indentation tracking (INDENT/DEDENT tokens).
func lex(src string) ([]token, error) {
	var toks []token
	indents := []int{0}
	line := 0
	lines := strings.Split(src, "\n")
	parenDepth := 0
	for li := 0; li < len(lines); li++ {
		line = li + 1
		text := lines[li]
		// Skip blank/comment-only lines entirely (no indent changes).
		trimmed := strings.TrimSpace(text)
		if parenDepth == 0 {
			if trimmed == "" || strings.HasPrefix(trimmed, "#") {
				continue
			}
			// Measure indentation (tabs count as 8 per Python custom; we
			// require consistent spaces or tabs, counting columns).
			col := 0
			for _, r := range text {
				if r == ' ' {
					col++
				} else if r == '\t' {
					col += 8 - col%8
				} else {
					break
				}
			}
			cur := indents[len(indents)-1]
			if col > cur {
				indents = append(indents, col)
				toks = append(toks, token{kind: tIndent, line: line})
			}
			for col < indents[len(indents)-1] {
				indents = indents[:len(indents)-1]
				toks = append(toks, token{kind: tDedent, line: line})
			}
			if col != indents[len(indents)-1] {
				return nil, fmt.Errorf("pylite: line %d: inconsistent indentation", line)
			}
		}
		// Tokenize the line content.
		i := 0
		s := text
		n := len(s)
		for i < n {
			c := s[i]
			switch {
			case c == ' ' || c == '\t':
				i++
			case c == '#':
				i = n
			case isPyIdentStart(c):
				start := i
				for i < n && isPyIdentPart(s[i]) {
					i++
				}
				word := s[start:i]
				kind := tName
				if pyKeywords[word] {
					kind = tKeyword
				}
				toks = append(toks, token{kind: kind, text: word, line: line})
			case c >= '0' && c <= '9' || (c == '.' && i+1 < n && s[i+1] >= '0' && s[i+1] <= '9'):
				start := i
				isFloat := false
				for i < n {
					d := s[i]
					if d >= '0' && d <= '9' {
						i++
					} else if d == '.' {
						isFloat = true
						i++
					} else if d == 'e' || d == 'E' {
						isFloat = true
						i++
						if i < n && (s[i] == '+' || s[i] == '-') {
							i++
						}
					} else {
						break
					}
				}
				kind := tInt
				if isFloat {
					kind = tFloat
				}
				toks = append(toks, token{kind: kind, text: s[start:i], line: line})
			case c == '"' || c == '\'':
				quote := c
				i++
				var b strings.Builder
				closed := false
				for i < n {
					if s[i] == '\\' && i+1 < n {
						switch s[i+1] {
						case 'n':
							b.WriteByte('\n')
						case 't':
							b.WriteByte('\t')
						case 'r':
							b.WriteByte('\r')
						case '\\':
							b.WriteByte('\\')
						case '\'':
							b.WriteByte('\'')
						case '"':
							b.WriteByte('"')
						default:
							b.WriteByte('\\')
							b.WriteByte(s[i+1])
						}
						i += 2
						continue
					}
					if s[i] == quote {
						i++
						closed = true
						break
					}
					b.WriteByte(s[i])
					i++
				}
				if !closed {
					return nil, fmt.Errorf("pylite: line %d: unterminated string", line)
				}
				toks = append(toks, token{kind: tStr, text: b.String(), line: line})
			default:
				ops3 := []string{"//=", "**="}
				ops2 := []string{"**", "//", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%="}
				matched := false
				for _, op := range ops3 {
					if strings.HasPrefix(s[i:], op) {
						toks = append(toks, token{kind: tOp, text: op, line: line})
						i += 3
						matched = true
						break
					}
				}
				if matched {
					continue
				}
				for _, op := range ops2 {
					if strings.HasPrefix(s[i:], op) {
						toks = append(toks, token{kind: tOp, text: op, line: line})
						i += 2
						matched = true
						break
					}
				}
				if matched {
					continue
				}
				switch c {
				case '(', '[', '{':
					parenDepth++
					toks = append(toks, token{kind: tOp, text: string(c), line: line})
					i++
				case ')', ']', '}':
					parenDepth--
					toks = append(toks, token{kind: tOp, text: string(c), line: line})
					i++
				case '+', '-', '*', '/', '%', '<', '>', '=', ',', ':', '.':
					toks = append(toks, token{kind: tOp, text: string(c), line: line})
					i++
				default:
					return nil, fmt.Errorf("pylite: line %d: unexpected character %q", line, c)
				}
			}
		}
		if parenDepth == 0 {
			toks = append(toks, token{kind: tNewline, line: line})
		}
	}
	for len(indents) > 1 {
		indents = indents[:len(indents)-1]
		toks = append(toks, token{kind: tDedent, line: line})
	}
	toks = append(toks, token{kind: tEOF, line: line})
	return toks, nil
}

func isPyIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isPyIdentPart(c byte) bool {
	return isPyIdentStart(c) || (c >= '0' && c <= '9')
}
