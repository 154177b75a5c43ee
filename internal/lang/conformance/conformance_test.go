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
