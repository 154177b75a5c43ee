package memo

// Parses is the compile-once front door of an embedded script
// interpreter: a program cache and an expression cache, each a Budget
// keyed by source text, both priced by one rule and each side parsing
// through its own parser on a miss. pylite, rlite, jlite and the tcl
// engine each hold one, so they share the byte budgets, the eviction
// rule and the counters the serving layer aggregates at /statsz.
//
// The byte-cost rule: an entry costs its source length plus a fixed
// overhead for the AST and bookkeeping (the AST scales with its source),
// so a long-lived interpreter fed a stream of huge one-shot fragments
// evicts by cost instead of pushing out many small hot ones. A failed
// parse is returned without entering the cache. Entries are immutable
// ASTs keyed by source only, so they replay against any interpreter
// state and survive Reset: reinitialisation discards state, not parses.
//
// Like Budget, a Parses is not safe for concurrent use.
type Parses[P, E any] struct {
	progs     *Budget[P]
	exprs     *Budget[E]
	parseProg func(src string) (P, error)
	parseExpr func(src string) (E, error)
}

// Per-interpreter budgets, in source bytes, and the per-entry overhead.
const (
	progBudget    = 1 << 20
	exprBudget    = 256 << 10
	entryOverhead = 64
)

func sourceCost[V any](src string, _ V) int64 { return int64(len(src)) + entryOverhead }

// NewParses creates the two caches over their parsers.
func NewParses[P, E any](parseProg func(src string) (P, error), parseExpr func(src string) (E, error)) *Parses[P, E] {
	return &Parses[P, E]{
		progs:     NewBudget(progBudget, sourceCost[P]),
		exprs:     NewBudget(exprBudget, sourceCost[E]),
		parseProg: parseProg,
		parseExpr: parseExpr,
	}
}

// Program returns the parsed program for src, parsing it on a miss.
func (p *Parses[P, E]) Program(src string) (P, error) {
	return p.progs.GetOrCompute(src, func() (P, error) { return p.parseProg(src) })
}

// Expr returns the parsed expression for src, parsing it on a miss.
func (p *Parses[P, E]) Expr(src string) (E, error) {
	return p.exprs.GetOrCompute(src, func() (E, error) { return p.parseExpr(src) })
}

// Stats sums both sides' counters and gauges: the interpreter's parse
// cache as one.
func (p *Parses[P, E]) Stats() BudgetStats {
	a, b := p.progs.Stats(), p.exprs.Stats()
	return BudgetStats{
		Hits:         a.Hits + b.Hits,
		Misses:       a.Misses + b.Misses,
		Evictions:    a.Evictions + b.Evictions,
		BytesEvicted: a.BytesEvicted + b.BytesEvicted,
		Oversize:     a.Oversize + b.Oversize,
		CurBytes:     a.CurBytes + b.CurBytes,
		Entries:      a.Entries + b.Entries,
	}
}
