// Package tcl implements an interpreter for a substantial subset of the
// Tcl language. In the reproduced system it plays the role Tcl 8 plays in
// Swift/T: the compiler target for STC-generated Turbine code, the
// extension language binding native kernels (via SWIG-style generated
// commands), and the host for the embedded Python and R evaluators.
//
// The interpreter follows the classic Tcl model: every value is a string;
// commands are looked up by name and receive fully substituted word lists;
// new commands are registered from Go exactly as C extensions register
// commands via Tcl_CreateObjCommand.
package tcl

import (
	"fmt"
	"strings"
)

// ---- Tcl list encoding ----
//
// Proper list quoting is load-bearing for the whole system: Turbine code
// splices data values into generated scripts, and unbalanced braces or
// embedded spaces must never change the parse. These functions implement
// Tcl's canonical list format.

// ListElement quotes a single string so it reads back as one list element.
func ListElement(s string) string {
	if s == "" {
		return "{}"
	}
	if !needsQuote(s) {
		return s
	}
	// Braces are safe only when nothing inside them could be read
	// structurally on the way back. This interpreter's scanners match the
	// brackets of a command substitution by counting, without looking at
	// brace quoting, so brackets inside braces must themselves balance.
	if !strings.Contains(s, "\\") && balanced(s, '{', '}') && balanced(s, '[', ']') {
		return "{" + s + "}"
	}
	// Backslash-quote everything problematic, byte by byte: every special
	// is ASCII, and other bytes (valid UTF-8 or not) pass through as is.
	var b strings.Builder
	if s[0] == '#' {
		b.WriteByte('\\') // never a comment, even as a script's first word
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ', '\t', '$', '[', ']', '{', '}', '"', ';', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString("\\n")
		case '\r':
			b.WriteString("\\r")
		case '\v':
			b.WriteString("\\v")
		case '\f':
			b.WriteString("\\f")
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func needsQuote(s string) bool {
	if s == "" {
		return true
	}
	if strings.ContainsAny(s, " \t\n\r\v\f;$[]{}\"\\") {
		return true
	}
	if s[0] == '#' {
		return true
	}
	return false
}

// balanced reports whether every close in s matches an earlier open and
// none is left open.
func balanced(s string, open, close byte) bool {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case open:
			depth++
		case close:
			depth--
			if depth < 0 {
				return false
			}
		}
	}
	return depth == 0
}

// FormatList joins elements into a canonical Tcl list string.
func FormatList(elems []string) string {
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = ListElement(e)
	}
	return strings.Join(parts, " ")
}

// ParseList splits a Tcl list string into its elements.
func ParseList(s string) ([]string, error) {
	var elems []string
	i := 0
	n := len(s)
	for {
		// Skip whitespace between elements.
		for i < n && isListSpace(s[i]) {
			i++
		}
		if i >= n {
			return elems, nil
		}
		switch s[i] {
		case '{':
			depth := 1
			j := i + 1
			var b strings.Builder
			for j < n && depth > 0 {
				switch s[j] {
				case '{':
					depth++
					b.WriteByte(s[j])
				case '}':
					depth--
					if depth > 0 {
						b.WriteByte(s[j])
					}
				case '\\':
					if j+1 < n {
						b.WriteByte(s[j])
						j++
						b.WriteByte(s[j])
					} else {
						b.WriteByte(s[j])
					}
				default:
					b.WriteByte(s[j])
				}
				j++
			}
			if depth != 0 {
				return nil, fmt.Errorf("tcl: unmatched open brace in list")
			}
			if j < n && !isListSpace(s[j]) {
				return nil, fmt.Errorf("tcl: list element in braces followed by %q instead of space", s[j])
			}
			elems = append(elems, b.String())
			i = j
		case '"':
			j := i + 1
			var b strings.Builder
			closed := false
			for j < n {
				if s[j] == '\\' && j+1 < n {
					c, w := backslashSubst(s[j:])
					b.WriteString(c)
					j += w
					continue
				}
				if s[j] == '"' {
					closed = true
					j++
					break
				}
				b.WriteByte(s[j])
				j++
			}
			if !closed {
				return nil, fmt.Errorf("tcl: unmatched quote in list")
			}
			if j < n && !isListSpace(s[j]) {
				return nil, fmt.Errorf("tcl: list element in quotes followed by %q instead of space", s[j])
			}
			elems = append(elems, b.String())
			i = j
		default:
			var b strings.Builder
			j := i
			for j < n && !isListSpace(s[j]) {
				if s[j] == '\\' && j+1 < n {
					c, w := backslashSubst(s[j:])
					b.WriteString(c)
					j += w
					continue
				}
				b.WriteByte(s[j])
				j++
			}
			elems = append(elems, b.String())
			i = j
		}
	}
}

func isListSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// backslashSubst interprets a backslash sequence at the start of s,
// returning the replacement text and the number of input bytes consumed.
func backslashSubst(s string) (string, int) {
	if len(s) < 2 {
		return "\\", 1
	}
	switch s[1] {
	case 'a':
		return "\a", 2
	case 'b':
		return "\b", 2
	case 'f':
		return "\f", 2
	case 'n':
		return "\n", 2
	case 'r':
		return "\r", 2
	case 't':
		return "\t", 2
	case 'v':
		return "\v", 2
	case '\n':
		// Backslash-newline (plus following whitespace) becomes one space.
		i := 2
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		return " ", i
	case 'x':
		// \xHH hex escape.
		i := 2
		v := 0
		for i < len(s) && i < 4 && isHex(s[i]) {
			v = v*16 + hexVal(s[i])
			i++
		}
		if i == 2 {
			return "x", 2
		}
		return string(rune(v)), i
	case 'u':
		i := 2
		v := 0
		for i < len(s) && i < 6 && isHex(s[i]) {
			v = v*16 + hexVal(s[i])
			i++
		}
		if i == 2 {
			return "u", 2
		}
		return string(rune(v)), i
	default:
		if s[1] >= '0' && s[1] <= '7' {
			i := 1
			v := 0
			for i < len(s) && i < 4 && s[i] >= '0' && s[i] <= '7' {
				v = v*8 + int(s[i]-'0')
				i++
			}
			return string(rune(v)), i
		}
		return string(s[1]), 2
	}
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
