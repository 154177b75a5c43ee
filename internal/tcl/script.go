package tcl

import "strings"

// Compile-once support: scripts and expressions are parsed to an
// immutable compiled form that can be evaluated any number of times, by
// any interpreter. This is the analogue of Tcl's bytecode compiler for
// this reproduction: the Turbine hot path evaluates the same rule
// actions, loop bodies, and while/for conditions over and over, and
// re-lexing them per iteration is exactly the interpreted-language
// overhead the paper's compiled-prelude design avoids.
//
// The pipeline is:
//
//	source string --(parse, once)--> *Script --(evalCommand per call)--> result
//
// Caching is keyed purely on source text and stores only parse results —
// never values, variable bindings, or namespace state — so evaluation
// under upvar/uplevel, proc redefinition, and changing variables behaves
// exactly as uncached evaluation. One deliberate deviation: expressions
// now parse in full before anything evaluates, so a syntactically
// invalid expression fails without executing any of its [cmd]
// substitutions (the old evaluate-while-parsing expr ran bracketed
// commands left of the syntax error first). Valid expressions are
// unaffected.

// Script is a parsed Tcl script. A Script is immutable after
// CompileScript returns and is safe to share between interpreters and
// goroutines; the stc layer compiles each generated program once and
// every engine/worker rank evaluates the same Script.
type Script struct {
	src  string
	cmds []command
}

// CompileScript parses src into a reusable compiled script. A proc
// command whose words are all literal is built here too, its parameters
// parsed and its body compiled, so every interpreter that evaluates the
// script installs the same definition instead of parsing it again.
func CompileScript(src string) (*Script, error) {
	cmds, err := parseScript(src)
	if err != nil {
		return nil, err
	}
	for i := range cmds {
		cmds[i].proc = prebuildProc(cmds[i].words)
	}
	return &Script{src: src, cmds: cmds}, nil
}

// prebuildProc returns the definition of `proc name params body` when
// every word is literal and the definition builds; otherwise nil, and
// the command is evaluated as it stands (raising any error then).
func prebuildProc(words []word) *procDecl {
	if len(words) != 4 || words[0].text != "proc" {
		return nil
	}
	for _, w := range words {
		if w.kind == wordExpand || (w.kind != wordBraced && !w.literal) {
			return nil
		}
	}
	def, err := newProcDef("proc", words[2].text, words[3].text, "", CompileScript)
	if err != nil {
		return nil
	}
	return &procDecl{key: strings.TrimPrefix(words[1].text, "::"), def: def}
}

// Source returns the source text the script was compiled from.
func (s *Script) Source() string { return s.src }

// Entry bounds of the two parse caches each interpreter owns (scripts and
// compiled expressions; memo.Budget priced by memo.UnitCost). The bound
// keeps pathological workloads (e.g. generated one-shot scripts with
// unique text) from growing memory without limit while the steady-state
// working set — loop bodies, rule actions, conditions — stays resident:
// a compiled program has tens of distinct procs and rule action shapes,
// not hundreds.
const (
	defaultScriptCacheSize = 512
	defaultExprCacheSize   = 512
)

// CacheStats reports the current number of memoized scripts and
// expressions, for tests and diagnostics.
func (in *Interp) CacheStats() (scripts, exprs int) {
	return in.scripts.Len(), in.exprs.Len()
}
