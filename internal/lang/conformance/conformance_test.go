package conformance

// The conformance matrix itself: every case × every registered engine.
// These tests are the single owner of the engine-generic invariants that
// used to be copied per-engine in internal/lang/lang_test.go — the
// Swift-level end-to-end half of the matrix lives in
// internal/core/typed_roundtrip_test.go, driven by the same Dialects.

import (
	"errors"
	"io"
	"testing"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/faultinject"
	"repro/internal/lang"
	"repro/internal/tcl"
)

func TestAllStandardEnginesRegistered(t *testing.T) {
	// The paper's four numeric languages must all be present: the matrix
	// below proves the shared contract only if they are actually in the
	// registry it iterates.
	for _, name := range []string{"python", "r", "tcl", "julia"} {
		if _, ok := lang.Lookup(name); !ok {
			t.Fatalf("standard engine %q is not registered", name)
		}
	}
}

func TestEveryRegisteredEngineHasADialect(t *testing.T) {
	// Coverage by construction: registering a language without teaching
	// the conformance suite how to probe it is an error, surfaced here
	// (and by every matrix runner) rather than by silently thinner tests.
	EachEngine(t, func(t *testing.T, reg lang.Registration, d Dialect) {
		if d.Identity == (Frag{}) || d.StateSet == (Frag{}) || d.StateRead == (Frag{}) ||
			d.ArgvRead1 == (Frag{}) || d.ArgvRead2 == (Frag{}) || d.Print == (Frag{}) || d.Swift == "" {
			t.Fatalf("dialect for %q is incomplete: %+v", reg.Name, d)
		}
	})
}

// panicWriter makes an engine fail from inside its own evaluation: every
// engine writes its program output through Host.Out.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("conformance: injected panic in engine output") }

// TestCountMatrix pins where an evaluation is counted — once, where
// the contained evaluation enters the engine — through both front doors:
// Install, whose Counters core reports as Result.Evals, and Pool
// (PoolStats.Evals). A panicking evaluation reached the engine and counts
// once; a lang.eval.pre fault never did and counts nothing. And every
// engine's parse cache reports into PoolStats: a repeated fragment is one
// miss, then hits that survive PolicyReinit.
func TestCountMatrix(t *testing.T) {
	const n = 4
	EachEngine(t, func(t *testing.T, reg lang.Registration, d Dialect) {
		defer faultinject.Reset()
		quiet, panicky := lang.Host{Out: io.Discard}, lang.Host{Out: panicWriter{}}
		counters := lang.NewCounters()
		in, panicIn := tcl.New(), tcl.New()
		lang.Install(in, quiet, lang.PolicyReinit, counters, reg)
		lang.Install(panicIn, panicky, lang.PolicyRetain, counters, reg)
		pool, panicPool := lang.NewPool(quiet, 2, nil), lang.NewPool(panicky, 2, nil)

		both := func(in *tcl.Interp, p *lang.Pool, f Frag) (installErr, poolErr error) {
			_, installErr = in.Eval(f.evalWords(reg))
			_, poolErr = p.Eval(reg.Name, "t", f.Call(reg, nil, lang.KindString), lang.PolicyReinit)
			return installErr, poolErr
		}
		counted := func(stage string, want int64) {
			t.Helper()
			viaInstall := counters.Snapshot()[reg.Name]
			viaPool := pool.Stats().Evals.Load() + panicPool.Stats().Evals.Load()
			if viaInstall != want || viaPool != want {
				t.Fatalf("%s: Install counted %d evaluations, Pool %d; want %d each", stage, viaInstall, viaPool, want)
			}
		}

		for i := 0; i < n; i++ {
			if ie, pe := both(in, pool, d.StateSet); ie != nil || pe != nil {
				t.Fatalf("evaluation %d: install %v, pool %v", i, ie, pe)
			}
		}
		counted("clean", n)
		if st := pool.Stats().Snapshot(); st.ParseMisses != 1 || st.ParseHits != n-1 {
			t.Fatalf("parse cache after %d reinit evaluations: %d misses, %d hits; want 1, %d",
				n, st.ParseMisses, st.ParseHits, n-1)
		}

		faultinject.Arm(faultinject.SiteLangEvalPre, faultinject.Plan{Hit: 1, Times: 2, Action: faultinject.ActError, Msg: "eval fault"})
		if ie, pe := both(in, pool, d.StateSet); ie == nil || pe == nil {
			t.Fatalf("armed fault site did not fail: install %v, pool %v", ie, pe)
		}
		counted("faulted", n)
		faultinject.Reset()

		ie, pe := both(panicIn, panicPool, d.Print)
		for _, err := range []error{ie, pe} {
			var te *lang.TaskError
			if !errors.As(err, &te) || te.Code != "panic" {
				t.Fatalf("panicking evaluation surfaced as %v, want a contained panic", err)
			}
		}
		counted("panicked", n+1)
	})
}

func TestRoundTripMatrix(t *testing.T) { RunRoundTripMatrix(t) }

func TestArgvMatrix(t *testing.T) { RunArgvMatrix(t) }

func TestPolicyMatrix(t *testing.T) { RunPolicyMatrix(t) }

// lendCase is one lending probe. Setup runs first, with no arguments; Keep
// runs with a blob TD as argv1 and keeps it (or its first Kept elements,
// when Kept is set) in the interpreter's state; Read, with no arguments,
// returns what was kept.
type lendCase struct {
	Name              string
	Setup, Keep, Read Frag
	Kept              int
}

// lendCases are each language's lending probes: fragments that keep their
// blob argument in interpreter state, in the language's own idioms.
var lendCases = map[string][]lendCase{
	"python": {
		{Name: "assign", Keep: Frag{Code: "keep = argv1"}, Read: Frag{Expr: "keep"}},
		{Name: "append", Setup: Frag{Code: "lst = []"}, Keep: Frag{Expr: "lst.append(argv1)"}, Read: Frag{Expr: "lst[0]"}},
		{Name: "user-sum", Setup: Frag{Code: "def sum(x):\n    global stash\n    stash = x\n    return 0"},
			Keep: Frag{Expr: "sum(argv1)"}, Read: Frag{Expr: "stash"}},
	},
	"julia": {
		{Name: "assign", Keep: Frag{Code: "keep = argv1"}, Read: Frag{Expr: "keep"}},
		// jlite's push! takes numbers only, so a vector cannot keep a
		// view: the case keeps an element, and checks a mutating call
		// still runs right.
		{Name: "push", Setup: Frag{Code: "cache = zeros(0)"}, Keep: Frag{Expr: "push!(cache, argv1[1])"},
			Read: Frag{Expr: "cache"}, Kept: 1},
	},
	"r":   {{Name: "assign", Keep: Frag{Code: "keep <- argv1"}, Read: Frag{Expr: "keep"}}},
	"tcl": {{Name: "set", Keep: Frag{Code: "set keep $argv1"}, Read: Frag{Code: "set keep"}}},
}

// lender is a DataPlane whose TDs each hold one blob viewing frame, as
// a worker's loaded rows view the reply frame they arrived in; stored
// is a copy of the last value stored.
type lender struct {
	frame  []byte
	stored lang.Value
}

func (p *lender) LoadChunk(ids []int64) (lang.Chunk, error) {
	var c lang.Chunk
	for range ids {
		c.Kinds = append(c.Kinds, chunk.KindBlob)
		c.Meta = append(c.Meta, chunk.BlobMeta{Elem: uint8(blob.ElemF64)})
	}
	c.Raw = p.frame
	if len(ids) > 0 {
		c.Off = []uint32{0, uint32(len(p.frame))}
	}
	return c, nil
}

func (p *lender) StoreAs(_ int64, _ string, v lang.Value) error {
	p.stored = v.Owned()
	return nil
}

// leaf maps the fragment onto a leaf record of reg's language, its
// fixed arguments immediates and then one TD argument per id.
func (f Frag) leaf(reg lang.Registration, outType string, ids ...int64) *lang.Leaf {
	c := f.Call(reg, nil, lang.KindString)
	args := []lang.Operand{{Imm: true, Val: lang.Str(c.Code)}}
	if reg.Sig.Fixed >= 2 {
		args = append(args, lang.Operand{Imm: true, Val: lang.Str(c.Expr)})
	}
	for _, id := range ids {
		args = append(args, lang.Operand{ID: id})
	}
	return &lang.Leaf{Engine: reg.Name, Out: 1 << 20, OutType: outType, Args: args}
}

// TestLendMatrix checks the lending contract (lang.Call) on every engine
// under both policies, through Table.Leaf: a leaf's blob argument views
// the frame it arrived in, and a fragment that keeps it must keep a
// copy. Each of the language's lendCases keeps argv1, the frame is then
// overwritten as a reused frame would be, and under PolicyRetain a later
// fragment must read back the original bytes; under PolicyReinit the
// kept state is gone, so the read must fail.
func TestLendMatrix(t *testing.T) {
	EachEngine(t, func(t *testing.T, reg lang.Registration, d Dialect) {
		if len(lendCases[reg.Name]) == 0 {
			t.Fatalf("engine %q has no lending probes; add them to lendCases", reg.Name)
		}
		for _, lc := range lendCases[reg.Name] {
			for _, policy := range []lang.Policy{lang.PolicyRetain, lang.PolicyReinit} {
				name := lc.Name + "/retain"
				if policy == lang.PolicyReinit {
					name = lc.Name + "/reinit"
				}
				t.Run(name, func(t *testing.T) { runLend(t, reg, lc, policy) })
			}
		}
	})
}

func runLend(t *testing.T, reg lang.Registration, lc lendCase, policy lang.Policy) {
	orig := blob.FromFloat64s([]float64{1.5, -2.25, 3e10, 0.1, 7})
	dp := &lender{frame: append([]byte(nil), orig.Data...)}
	table := lang.Install(tcl.New(), lang.Host{Out: io.Discard}, policy, nil, reg)
	retain := policy == lang.PolicyRetain
	if lc.Setup != (Frag{}) {
		if err := table.Leaf(lc.Setup.leaf(reg, "string"), dp); err != nil && retain {
			t.Fatalf("setup: %v", err)
		}
	}
	if err := table.Leaf(lc.Keep.leaf(reg, "string", 1), dp); err != nil && retain {
		t.Fatalf("keep: %v", err)
	}
	for i := range dp.frame {
		dp.frame[i] = 0xee
	}
	err := table.Leaf(lc.Read.leaf(reg, "blob"), dp)
	if !retain {
		if err == nil {
			t.Fatalf("reinit: the kept value survived the fragment: %x", dp.stored.AsBlob().Data)
		}
		return
	}
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	want := orig.Data
	if lc.Kept > 0 {
		want = want[:lc.Kept*8]
	}
	if got := dp.stored.AsBlob().Data; string(got) != string(want) {
		t.Fatalf("the kept argument changed with the frame it was lent from:\n got %x\nwant %x", got, want)
	}
}
