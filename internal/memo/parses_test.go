package memo

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// countingParses builds a front door whose parsers count their calls and
// fail on any source starting with "!".
func countingParses() (*Parses[string, int], *int, *int) {
	progCalls, exprCalls := 0, 0
	p := NewParses(
		func(src string) (string, error) {
			progCalls++
			if strings.HasPrefix(src, "!") {
				return "", errors.New("bad program")
			}
			return "prog:" + src, nil
		},
		func(src string) (int, error) {
			exprCalls++
			if strings.HasPrefix(src, "!") {
				return 0, errors.New("bad expr")
			}
			return len(src), nil
		})
	return p, &progCalls, &exprCalls
}

func TestParsesEachSideParsesOnce(t *testing.T) {
	p, progCalls, exprCalls := countingParses()
	for i := 0; i < 3; i++ {
		if v, err := p.Program("x = 1"); err != nil || v != "prog:x = 1" {
			t.Fatalf("Program = %q, %v", v, err)
		}
		if v, err := p.Expr("x"); err != nil || v != 1 {
			t.Fatalf("Expr = %d, %v", v, err)
		}
	}
	// The same text on the other side is a different entry.
	if _, err := p.Expr("x = 1"); err != nil {
		t.Fatal(err)
	}
	if *progCalls != 1 || *exprCalls != 2 {
		t.Fatalf("parser calls: %d program, %d expression; want 1, 2", *progCalls, *exprCalls)
	}
}

func TestParsesCombinedStats(t *testing.T) {
	p, _, _ := countingParses()
	p.Program("abc")
	p.Program("abc")
	p.Expr("de")
	p.Expr("de")
	p.Expr("de")
	st := p.Stats()
	want := BudgetStats{Hits: 3, Misses: 2, Entries: 2, CurBytes: 3 + 2 + 2*entryOverhead}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestParsesErrorsNeverCached(t *testing.T) {
	p, progCalls, exprCalls := countingParses()
	for i := 0; i < 2; i++ {
		if _, err := p.Program("!bad"); err == nil {
			t.Fatal("bad program parsed")
		}
		if _, err := p.Expr("!bad"); err == nil {
			t.Fatal("bad expression parsed")
		}
	}
	if *progCalls != 2 || *exprCalls != 2 {
		t.Fatalf("parser calls: %d, %d; want every failure re-parsed", *progCalls, *exprCalls)
	}
	if st := p.Stats(); st.Entries != 0 || st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats after failures = %+v", st)
	}
}

func TestParsesByteBound(t *testing.T) {
	p, progCalls, _ := countingParses()
	// 20 program sources of 64 KiB: 1.25 MiB against the 1 MiB budget.
	const size = 64 << 10
	for i := 0; i < 20; i++ {
		src := fmt.Sprintf("%02d", i) + strings.Repeat("x", size-2)
		if _, err := p.Program(src); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.CurBytes > progBudget || st.Evictions == 0 || st.BytesEvicted != st.Evictions*(size+entryOverhead) {
		t.Fatalf("after a 1.25 MiB flood: %+v", st)
	}
	// One source larger than the whole budget parses but is never cached,
	// and evicts nothing on its way past.
	huge := strings.Repeat("y", progBudget)
	before := *progCalls
	for i := 0; i < 2; i++ {
		if v, err := p.Program(huge); err != nil || v != "prog:"+huge {
			t.Fatalf("oversize program: %v", err)
		}
	}
	after := p.Stats()
	if after.Oversize != 2 || *progCalls-before != 2 || after.Entries != st.Entries || after.Evictions != st.Evictions {
		t.Fatalf("oversize entry: parsed %d times, stats %+v (was %+v)", *progCalls-before, after, st)
	}
	// The expression side keeps its own, smaller budget.
	if _, err := p.Expr(strings.Repeat("z", exprBudget)); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Oversize != after.Oversize+1 {
		t.Fatal("an expression past the expression budget was cached")
	}
}
