package core

// Container<->vector bridge edge cases, pinned: vpack of an empty closed
// array produces a 0-byte float64 blob that survives every registered
// engine and vunpacks back to an empty array; a 1-element array
// round-trips bit-exact the same way; and `int A[] = vunpack(b)` over a
// non-integral blob fails loudly with the "not an integer" diagnostic,
// wherever the blob was born. The engine identity statements come from
// the conformance dialects, so these edges track the registry like the
// main matrix does.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/lang/conformance"
)

// runEdge runs a vpack edge program with the given element-writing loop
// body and engine identity statement (binding `through` from `v`).
func runEdge(t *testing.T, writes, stmt string) *Result {
	t.Helper()
	src := fmt.Sprintf(`
		float xs[];
		%s
		blob v = vpack(xs);
		%s
		float ys[] = vunpack(through);
		printf("bytes=%%i n=%%i", blob_size(through), size(ys));
	`, writes, stmt)
	res, err := Run(src, Config{Engines: 1, Workers: 2, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestVpackEmptyArrayRoundTripsEveryEngine(t *testing.T) {
	// An empty closed array packs to a 0-byte blob — not an error — and
	// the empty vector is a legal value in every registered engine.
	conformance.EachEngine(t, func(t *testing.T, reg lang.Registration, d conformance.Dialect) {
		res := runEdge(t, "", d.Swift)
		if !strings.Contains(res.Stdout, "bytes=0 n=0") {
			t.Fatalf("empty round trip through %s: stdout = %q", reg.Name, res.Stdout)
		}
	})
	t.Run("no-engine", func(t *testing.T) {
		res := runEdge(t, "", "blob through = v;")
		if !strings.Contains(res.Stdout, "bytes=0 n=0") {
			t.Fatalf("stdout = %q", res.Stdout)
		}
	})
}

func TestVpackOneElementArrayRoundTripsEveryEngine(t *testing.T) {
	// One element, full float64 mantissa (0.1 + 0.2): any rendering on
	// the route would break the equality check after unpacking.
	const writes = `xs[0] = 0.1 + 0.2;`
	conformance.EachEngine(t, func(t *testing.T, reg lang.Registration, d conformance.Dialect) {
		src := fmt.Sprintf(`
			float xs[];
			%s
			blob v = vpack(xs);
			%s
			float ys[] = vunpack(through);
			if (ys[0] == xs[0]) { trace("exact"); }
			printf("bytes=%%i n=%%i", blob_size(through), size(ys));
		`, writes, d.Swift)
		res, err := Run(src, Config{Engines: 1, Workers: 2, Servers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Stdout, "bytes=8 n=1") {
			t.Fatalf("1-element round trip through %s: stdout = %q", reg.Name, res.Stdout)
		}
		if !strings.Contains(res.Stdout, "trace: exact") {
			t.Fatalf("element not bit-exact through %s: stdout = %q", reg.Name, res.Stdout)
		}
	})
}

func TestVunpackIntContextErrorMessageForEngineBornBlob(t *testing.T) {
	// `int A[] = vunpack(b)` demands exactly integral values whatever
	// produced the blob — here a Python fragment, not vpack. The
	// diagnostic must name the offending value, not round it.
	src := `
		blob b = python("v = [1.5, 2.0]", "v");
		int zs[] = vunpack(b);
		printf("n=%i", size(zs));
	`
	_, err := Run(src, Config{Engines: 1, Workers: 2, Servers: 1})
	if err == nil || !strings.Contains(err.Error(), "not an integer") {
		t.Fatalf("err = %v, want 'not an integer' diagnostic", err)
	}
	if !strings.Contains(err.Error(), "1.5") {
		t.Fatalf("diagnostic does not name the offending value: %v", err)
	}
	// Exactly-integral float payloads remain unpackable as int.
	res, err := Run(`
		blob b = julia("v = [1.0, 2.0, 3.0]", "v");
		int zs[] = vunpack(b);
		printf("n=%i z3=%i", size(zs), zs[2]);
	`, Config{Engines: 1, Workers: 2, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "n=3 z3=3") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestArrayReadAtComputedSubscriptOfMemberStoredLater(t *testing.T) {
	// The members are inserted when main expands but stored only when
	// their python leaves finish, so the read at a computed subscript may
	// look the member up before it holds a value, or a type.
	const src = `
		int a[];
		a[0] = python("", "10");
		a[1] = python("", "20");
		int j = toInt("1");
		int y = a[j];
		printf("y=%i", y);
	`
	for i := 0; i < 20; i++ {
		res, err := Run(src, Config{Engines: 1, Workers: 2, Servers: 1})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := strings.TrimSpace(res.Stdout); got != "y=20" {
			t.Fatalf("run %d: stdout %q, want y=20", i, got)
		}
	}
}
