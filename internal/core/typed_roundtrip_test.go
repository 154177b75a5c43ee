package core

// End-to-end half of the cross-engine conformance matrix (Engine v2): a
// blob vector travels Swift -> embedded engine -> Swift bit-exact —
// payload bytes, Fortran dims, and element kind all intact — with no
// string rendering of element data anywhere on the route. The vectors,
// the per-language identity statements, and the engine iteration all
// come from internal/lang/conformance, so every engine in
// lang.Registered() is driven through the same cases (the Engine-level
// half of the matrix runs in the conformance package itself); there are
// no per-engine tables here. The test registers a typed probe language
// (one lang.Register call, like the toy engine test) whose engine emits
// the prepared blob into the dataflow and captures what comes back.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/lang/conformance"
)

// probeState is shared by every rank's probe engine instance.
type probeState struct {
	mu  sync.Mutex
	src lang.Value
	got []lang.Value
}

func (p *probeState) capture(v lang.Value) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.got = append(p.got, v)
}

// probeEngine speaks Engine v2 natively: probe("emit") returns the
// prepared value typed; probe("capture", x) records its typed argument
// and passes it through. A blob argument is lent for the call, so what
// capture records is a copy.
type probeEngine struct {
	st *probeState
}

func (e *probeEngine) Name() string { return "probe" }

func (e *probeEngine) Eval(c lang.Call) (lang.Value, error) {
	switch c.Code {
	case "emit":
		return e.st.src, nil
	case "capture":
		if len(c.Args) != 1 {
			return lang.Value{}, fmt.Errorf("probe: capture takes one argument, got %d", len(c.Args))
		}
		e.st.capture(c.Args[0].Owned())
		return c.Args[0], nil
	}
	return lang.Value{}, fmt.Errorf("probe: unknown op %q", c.Code)
}

func (e *probeEngine) Reset() {}

// runSwiftRoundTrip routes one conformance vector through a Swift
// program whose `stmt` binds `blob through` from `v`, and asserts the
// captured result is bit-exact.
func runSwiftRoundTrip(t *testing.T, label, stmt string, vc conformance.VectorCase) *Result {
	t.Helper()
	st := &probeState{src: lang.BlobOf(vc.B)}
	lang.Register(lang.Registration{
		Name: "probe",
		Sig:  lang.Signature{Fixed: 1, Variadic: true},
		New:  func(h lang.Host) lang.Engine { return &probeEngine{st: st} },
	})
	defer lang.Unregister("probe")

	src := fmt.Sprintf(`
		blob v = probe("emit");
		%s
		blob back = probe("capture", through);
		printf("len=%%i", blob_size(back));
	`, stmt)
	res, err := Run(src, Config{Engines: 1, Workers: 2, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, fmt.Sprintf("len=%d", len(vc.B.Data))) {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.got) != 1 {
		t.Fatalf("captured %d values, want 1", len(st.got))
	}
	got := st.got[0]
	if got.Kind() != lang.KindBlob {
		t.Fatalf("captured kind = %v, want blob", got.Kind())
	}
	conformance.AssertBlobEqual(t, label+" round trip", got.AsBlob(), vc.B)
	return res
}

func TestTypedBlobRoundTripBitExact(t *testing.T) {
	// Every registered engine, every conformance vector: the identity
	// statement comes from the engine's dialect, so a newly registered
	// language is pulled into this matrix automatically.
	conformance.EachEngine(t, func(t *testing.T, reg lang.Registration, d conformance.Dialect) {
		for _, vc := range conformance.Vectors() {
			vc := vc
			t.Run(vc.Name, func(t *testing.T) {
				res := runSwiftRoundTrip(t, reg.Name, d.Swift, vc)
				// Each evaluation reaches Result.Evals exactly once.
				if res.Evals[reg.Name] != 1 || res.Evals["probe"] != 2 {
					t.Fatalf("evals = %v, want 1 %s and 2 probe", res.Evals, reg.Name)
				}
			})
		}
	})
}

func TestSwiftCopyRoundTripBitExact(t *testing.T) {
	// A Swift-level copy (sw:copy -> turbine::copy_blob) must keep the
	// payload and metadata too — same vectors, no engine in the route.
	for _, vc := range conformance.Vectors() {
		vc := vc
		t.Run(vc.Name, func(t *testing.T) {
			runSwiftRoundTrip(t, "swift-copy", `blob through = v;`, vc)
		})
	}
}

func TestTypedBlobComputeAcrossLanguages(t *testing.T) {
	// Beyond identity: a vector born in Python (list -> blob) is doubled
	// by R's native vectorised arithmetic, shifted by a Julia-like
	// broadcast, and summed back in Python, all through typed blob
	// handles; the only rendering is the final float.
	st := &probeState{}
	lang.Register(lang.Registration{
		Name: "probe",
		Sig:  lang.Signature{Fixed: 1, Variadic: true},
		New:  func(h lang.Host) lang.Engine { return &probeEngine{st: st} },
	})
	defer lang.Unregister("probe")

	res, err := Run(`
		blob xs = python("v = map(lambda i: 0.5 * i, range(6))", "v");
		blob doubled = r("", "argv1 * 2", xs);
		blob shifted = julia("y = argv1 .+ 1.0", "y", doubled);
		blob seen = probe("capture", shifted);
		float total = python("", "sum(argv1)", seen);
		printf("total=%f", total);
	`, Config{Engines: 1, Workers: 2, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// sum(2 * 0.5 * (0+1+...+5) + 6 * 1) = 15 + 6 = 21
	if !strings.Contains(res.Stdout, "total=21") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.got) != 1 || st.got[0].Kind() != lang.KindBlob {
		t.Fatalf("captured = %+v", st.got)
	}
	xs, err := st.got[0].AsBlob().Floats()
	if err != nil || len(xs) != 6 || xs[5] != 6.0 {
		t.Fatalf("shifted vector = %v, %v", xs, err)
	}
}
