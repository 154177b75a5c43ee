package tcl

import (
	"fmt"
	"strings"
)

// The parser turns a script into a sequence of commands, each a sequence
// of word tokens. Substitution ($var, [cmd], backslashes) happens at
// evaluation time, word by word, following Tcl's two-phase model.

// wordKind distinguishes how a word is substituted at evaluation time.
type wordKind int

const (
	wordBare   wordKind = iota // $ [ ] and backslash substitution
	wordBraced                 // literal, no substitution
	wordQuoted                 // like bare but spaces retained
	wordExpand                 // {*}-prefixed: result splices as list
)

type word struct {
	kind wordKind
	text string
	// literal marks bare/quoted/expand words whose text contains no $, [,
	// or backslash: substWord would return them unchanged, so evaluation
	// skips substitution entirely. Decided once at parse time; this is the
	// main payoff of caching parsed scripts.
	literal bool
	// plan is the precompiled substitution plan of a non-literal word:
	// the $var / [cmd] / backslash scan done once at parse time, so a
	// cached script's words are never re-scanned character by character
	// at evaluation. nil for literal words. Malformed constructs compile
	// to error segments that raise at first evaluation, exactly as the
	// scan-per-eval path reported them.
	plan []seg
}

// A substitution plan is a sequence of segments. Backslash sequences are
// static, so they resolve into the literal segments at compile time;
// variables and bracketed scripts stay symbolic and resolve per eval.
// Malformed constructs compile to an error segment that raises at
// evaluation time, exactly where the scan-per-eval path reported them —
// so compileSubstPlan is total and is the single substitution grammar:
// substWord itself runs by compiling a plan and walking it.
type segKind int

const (
	segLit    segKind = iota // literal text (backslashes already resolved)
	segVar                   // $name or ${name}
	segVarArr                // $name(index) — the index substitutes at eval time
	segScript                // [script] — evaluated through the memoized pipeline
	segErr                   // malformed construct: raises text as an error
)

type seg struct {
	kind segKind
	text string // literal text, variable name, script source, or error message
	sub  []seg  // segVarArr only: the index's own compiled plan
}

// compileSubstPlan precompiles substitution for a word's text. The scan
// stops at the first malformed construct, which becomes a trailing
// segErr: segments before it still evaluate (and side-effect) in order,
// as the scanner always did.
func compileSubstPlan(text string) []seg {
	var plan []seg
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			plan = append(plan, seg{kind: segLit, text: lit.String()})
			lit.Reset()
		}
	}
	i, n := 0, len(text)
	for i < n {
		switch text[i] {
		case '\\':
			s, w := backslashSubst(text[i:])
			lit.WriteString(s)
			i += w
		case '$':
			ref, w, errMsg := parseVarRef(text[i:])
			if errMsg != "" {
				flush()
				return append(plan, seg{kind: segErr, text: errMsg})
			}
			if w == 0 { // lone dollar
				lit.WriteByte('$')
				i++
				continue
			}
			flush()
			plan = append(plan, ref)
			i += w
		case '[':
			d := 1
			j := i + 1
			for j < n && d > 0 {
				switch text[j] {
				case '[':
					d++
				case ']':
					d--
				case '\\':
					j++
				}
				j++
			}
			if d != 0 {
				flush()
				return append(plan, seg{kind: segErr, text: "tcl: missing close-bracket"})
			}
			flush()
			plan = append(plan, seg{kind: segScript, text: text[i+1 : j-1]})
			i = j
		default:
			lit.WriteByte(text[i])
			i++
		}
	}
	flush()
	return plan
}

// parseVarRef parses a $name, ${name}, or $name(index) reference at the
// start of s without resolving it, returning its segment and the bytes
// consumed (0 when s is not a variable reference, as for a lone dollar).
// errMsg marks malformed references that must raise at evaluation time.
func parseVarRef(s string) (ref seg, width int, errMsg string) {
	if len(s) < 2 {
		return seg{}, 0, ""
	}
	if s[1] == '{' {
		j := strings.IndexByte(s, '}')
		if j < 0 {
			return seg{}, 0, "tcl: missing close-brace for variable name"
		}
		return seg{kind: segVar, text: s[2:j]}, j + 1, ""
	}
	j := 1
	for j < len(s) && isVarNameChar(s[j]) {
		j++
	}
	if j == 1 {
		return seg{}, 0, ""
	}
	name := s[1:j]
	if j < len(s) && s[j] == '(' {
		depth := 1
		k := j + 1
		for k < len(s) && depth > 0 {
			switch s[k] {
			case '(':
				depth++
			case ')':
				depth--
			case '\\':
				k++
			}
			k++
		}
		if depth != 0 {
			return seg{}, 0, "tcl: missing close-paren in array reference"
		}
		return seg{kind: segVarArr, text: name, sub: compileSubstPlan(s[j+1 : k-1])}, k, ""
	}
	return seg{kind: segVar, text: name}, j, ""
}

// substPlan performs the substitution described by a precompiled plan —
// the eval-time half of compileSubstPlan. Single-segment words (a bare
// $var, one [cmd]) skip the builder entirely.
func (in *Interp) substPlan(plan []seg) (string, error) {
	if len(plan) == 1 {
		return in.substSeg(&plan[0])
	}
	var b strings.Builder
	for i := range plan {
		s, err := in.substSeg(&plan[i])
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

func (in *Interp) substSeg(s *seg) (string, error) {
	switch s.kind {
	case segLit:
		return s.text, nil
	case segVar:
		return in.GetVar(s.text)
	case segVarArr:
		idx, err := in.substPlan(s.sub)
		if err != nil {
			return "", err
		}
		return in.GetVar(s.text + "(" + idx + ")")
	case segErr:
		return "", fmt.Errorf("%s", s.text)
	default: // segScript
		return in.Eval(s.text)
	}
}

type command struct {
	words []word
	line  int
	// proc is set on a proc command whose words are all literal: its
	// definition, built once by CompileScript.
	proc *procDecl
}

// procDecl is a pre-built proc command: evaluating it installs def
// under the qualified name key.
type procDecl struct {
	key string
	def *procDef
}

// isLiteralText reports whether substitution of text is the identity.
func isLiteralText(text string) bool {
	return !strings.ContainsAny(text, "$[\\")
}

// parseScript splits src into commands without performing substitution.
func parseScript(src string) ([]command, error) {
	var cmds []command
	i := 0
	n := len(src)
	line := 1
	for i < n {
		// Skip leading whitespace and command separators.
		for i < n && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r' || src[i] == ';') {
			if src[i] == '\n' {
				line++
			}
			i++
		}
		if i >= n {
			break
		}
		if src[i] == '#' {
			// Comment: runs to unescaped newline.
			for i < n && src[i] != '\n' {
				if src[i] == '\\' && i+1 < n {
					i++
					if src[i] == '\n' {
						line++
					}
				}
				i++
			}
			continue
		}
		cmd, next, nl, err := parseCommand(src, i, line)
		if err != nil {
			return nil, err
		}
		if len(cmd.words) > 0 {
			cmds = append(cmds, cmd)
		}
		i = next
		line = nl
	}
	return cmds, nil
}

// parseCommand reads one command starting at i; it ends at an unquoted
// newline or semicolon.
func parseCommand(src string, i, line int) (command, int, int, error) {
	cmd := command{line: line}
	n := len(src)
	for i < n {
		// Skip intra-command whitespace.
		for i < n && (src[i] == ' ' || src[i] == '\t') {
			i++
		}
		// Backslash-newline is a continuation.
		if i+1 < n && src[i] == '\\' && src[i+1] == '\n' {
			i += 2
			line++
			continue
		}
		if i >= n || src[i] == '\n' || src[i] == ';' {
			if i < n {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			return cmd, i, line, nil
		}
		w, next, nl, err := parseWord(src, i, line)
		if err != nil {
			return command{}, 0, 0, err
		}
		if !w.literal {
			// Precompute the substitution plan once, here at parse time;
			// the cached script then evaluates without re-scanning.
			w.plan = compileSubstPlan(w.text)
		}
		cmd.words = append(cmd.words, w)
		i = next
		line = nl
	}
	return cmd, i, line, nil
}

// parseWord reads a single word starting at position i.
func parseWord(src string, i, line int) (word, int, int, error) {
	n := len(src)
	expand := false
	if strings.HasPrefix(src[i:], "{*}") && i+3 < n && src[i+3] != ' ' && src[i+3] != '\t' && src[i+3] != '\n' {
		expand = true
		i += 3
	}
	if i >= n {
		return word{kind: wordBare}, i, line, nil
	}
	switch src[i] {
	case '{':
		depth := 0
		start := i + 1
		j := i
		for j < n {
			switch src[j] {
			case '{':
				depth++
			case '}':
				depth--
				if depth == 0 {
					text := src[start:j]
					j++
					if j < n && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' && src[j] != ';' {
						return word{}, 0, 0, fmt.Errorf("tcl: line %d: extra characters after close-brace", line)
					}
					k := wordBraced
					if expand {
						k = wordExpand
					}
					return word{kind: k, text: text, literal: !expand || isLiteralText(text)}, j, line + strings.Count(src[i:j], "\n"), nil
				}
			case '\\':
				j++
			case '\n':
			}
			j++
		}
		return word{}, 0, 0, fmt.Errorf("tcl: line %d: missing close-brace", line)
	case '"':
		j := i + 1
		for j < n {
			switch src[j] {
			case '\\':
				j++
			case '[':
				// Skip a bracketed script inside quotes.
				d := 1
				j++
				for j < n && d > 0 {
					switch src[j] {
					case '[':
						d++
					case ']':
						d--
					case '\\':
						j++
					}
					j++
				}
				continue
			case '"':
				text := src[i+1 : j]
				j++
				if j < n && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' && src[j] != ';' {
					return word{}, 0, 0, fmt.Errorf("tcl: line %d: extra characters after close-quote", line)
				}
				k := wordQuoted
				if expand {
					k = wordExpand // expansion of a quoted word: substitute then split
				}
				return word{kind: k, text: text, literal: isLiteralText(text)}, j, line + strings.Count(src[i:j], "\n"), nil
			}
			j++
		}
		return word{}, 0, 0, fmt.Errorf("tcl: line %d: missing close-quote", line)
	default:
		j := i
		for j < n {
			c := src[j]
			if c == ' ' || c == '\t' || c == '\n' || c == ';' {
				break
			}
			if c == '\\' && j+1 < n {
				j += 2
				continue
			}
			if c == '[' {
				d := 1
				j++
				for j < n && d > 0 {
					switch src[j] {
					case '[':
						d++
					case ']':
						d--
					case '\\':
						j++
					}
					j++
				}
				continue
			}
			j++
		}
		k := wordBare
		if expand {
			k = wordExpand
		}
		text := src[i:j]
		return word{kind: k, text: text, literal: isLiteralText(text)}, j, line + strings.Count(src[i:j], "\n"), nil
	}
}

// substWord performs $, [], and backslash substitution on a word's text
// by compiling a plan and walking it — the same single grammar the
// parse-time word plans use, so the cached and uncached paths cannot
// drift. Callers on hot paths hold a precompiled plan instead (word.plan,
// seg.sub); this entry point serves ad-hoc text (the `subst` command,
// expr string interpolation).
func (in *Interp) substWord(text string) (string, error) {
	return in.substPlan(compileSubstPlan(text))
}

func isVarNameChar(c byte) bool {
	return c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}
