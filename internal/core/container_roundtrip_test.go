package core

// End-to-end proof of the container<->vector bridge: a Swift array built
// by a foreach loop crosses to an embedded interpreter as one packed
// blob vector (vpack), comes back typed, and unpacks into a Swift array
// (vunpack) bit-exact — with the gather and scatter both travelling the
// batched data plane, never one RPC (or one rendered string) per
// element. The probe engine from typed_roundtrip_test.go captures the
// packed blob so the test can assert the exact bytes, dims, and element
// kind that crossed the boundary.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/lang"
)

func TestContainerVectorRoundTripBitExact(t *testing.T) {
	const n = 16
	// Element values with full float64 mantissas: any decimal rendering
	// on the route would be caught by the bitwise comparison below.
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i)*0.125 + 0.1
	}
	engines := []struct {
		name string
		stmt string // Swift statement binding `through` from `packed`
	}{
		{"python", `blob through = python("", "argv1", packed);`},
		{"r", `blob through = r("x <- argv1", "x", packed);`},
		{"none", `blob through = packed;`},
	}
	for _, ec := range engines {
		t.Run(ec.name, func(t *testing.T) {
			st := &probeState{}
			lang.Register(lang.Registration{
				Name: "probe",
				Sig:  lang.Signature{Fixed: 1, Variadic: true},
				New:  func(h lang.Host) lang.Engine { return &probeEngine{st: st} },
			})
			defer lang.Unregister("probe")

			src := fmt.Sprintf(`
				float xs[];
				foreach i in [0:%d] {
					xs[i] = itof(i) * 0.125 + 0.1;
				}
				blob packed = vpack(xs);
				%s
				blob seen = probe("capture", through);
				float ys[] = vunpack(through);
				foreach y, i in ys {
					if (y == xs[i]) { trace(i); }
				}
				printf("unpacked=%%i", size(ys));
			`, n-1, ec.stmt)
			res, err := Run(src, Config{Engines: 2, Workers: 4, Servers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(res.Stdout, fmt.Sprintf("unpacked=%d", n)) {
				t.Fatalf("stdout = %q", res.Stdout)
			}
			// Every unpacked element compared equal (as float64 TDs) to
			// the element the loop originally stored.
			if got := strings.Count(res.Stdout, "trace:"); got != n {
				t.Fatalf("only %d/%d elements survived the round trip bit-exact\n%s", got, n, res.Stdout)
			}
			// The captured blob is the packed vector itself: float64
			// little-endian payload with dims [n].
			st.mu.Lock()
			defer st.mu.Unlock()
			if len(st.got) != 1 {
				t.Fatalf("probe captured %d values, want 1", len(st.got))
			}
			b := st.got[0].AsBlob()
			wantBlob := blob.FromFloat64s(want)
			if !bytes.Equal(b.Data, wantBlob.Data) {
				t.Fatalf("packed payload differs from bit-exact float64 packing\n got %x\nwant %x", b.Data, wantBlob.Data)
			}
			if b.Elem != blob.ElemF64 {
				t.Fatalf("packed element kind = %v, want float64", b.Elem)
			}
			if len(b.Dims) != 1 || b.Dims[0] != n {
				t.Fatalf("packed dims = %v, want [%d]", b.Dims, n)
			}
		})
	}
}

func TestContainerVectorIntRoundTrip(t *testing.T) {
	// int arrays pack as int64 vectors and unpack by context typing
	// (`int zs[] = vunpack(...)`).
	src := `
		int xs[];
		foreach i in [0:9] {
			xs[i] = i * 3 - 7;
		}
		blob packed = vpack(xs);
		int zs[] = vunpack(packed);
		foreach z, i in zs {
			if (z == xs[i]) { trace(i); }
		}
		printf("n=%i", size(zs));
	`
	res, err := Run(src, Config{Engines: 1, Workers: 2, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "n=10") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if got := strings.Count(res.Stdout, "trace:"); got != 10 {
		t.Fatalf("only %d/10 int elements round-tripped\n%s", got, res.Stdout)
	}
}

func TestContainerVectorEnsemble(t *testing.T) {
	// The paper's §IV idiom end to end: scatter a packed vector into an
	// array, run one typed interpreter fragment per element (an ensemble
	// of leaf tasks), gather the results back into one blob, and
	// aggregate it in a single R call.
	src := `
		float xs[];
		foreach i in [0:7] {
			xs[i] = itof(i) + 1.0;
		}
		blob v = vpack(xs);
		float ys[] = vunpack(v);
		float sq[];
		foreach y, i in ys {
			sq[i] = python("", "argv1 * argv1", y);
		}
		blob packed = vpack(sq);
		float total = r("s <- sum(argv1)", "s", packed);
		printf("total=%f", total);
	`
	res, err := Run(src, Config{Engines: 1, Workers: 4, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// sum of squares of 1..8 = 204.
	if !strings.Contains(res.Stdout, "total=204") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if res.Evals["python"] != 8 || res.Evals["r"] != 1 {
		t.Fatalf("evals: py=%d r=%d, want 8 and 1", res.Evals["python"], res.Evals["r"])
	}
}

func TestVunpackRejectsNonIntegralIntContext(t *testing.T) {
	// `int A[] = vunpack(b)` over a float payload with fractional values
	// must fail loudly, not round.
	src := `
		float xs[];
		foreach i in [0:3] {
			xs[i] = itof(i) + 0.5;
		}
		blob packed = vpack(xs);
		int zs[] = vunpack(packed);
		printf("n=%i", size(zs));
	`
	_, err := Run(src, Config{Engines: 1, Workers: 2, Servers: 1})
	if err == nil || !strings.Contains(err.Error(), "not an integer") {
		t.Fatalf("err = %v, want non-integral vunpack failure", err)
	}
}

// The bridge costs O(servers) data operations, not O(n): a blob scattered
// by vunpack and gathered back by vpack makes exactly as many data-store
// RPCs at 2n elements as at n, and the vector that comes back is the one
// that went in, bit for bit. (The member wait is one Put of the member
// ids; before waits were batched this count grew by one RPC per element.)
// On one server nothing is stolen, so every leaf's inputs ride its item,
// as the engine's vunpack's ride its rule, and the count is exact, chunk
// loads included (none). On two servers a worker that stole an item
// loads its inputs from their owner, which depends on the schedule, not
// on n: there the data ops other than chunk loads are exact and the
// chunk loads are bounded by one each for the gather and the capture.
func TestVectorBridgeDataOpsIndependentOfLength(t *testing.T) {
	const (
		oneServerLoads = 0
		maxLoads       = 2
	)
	trip := func(t *testing.T, n, servers int) (dataOps, loads int64) {
		t.Helper()
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i)*0.125 + 0.1
		}
		st := &probeState{src: lang.BlobOf(blob.FromFloat64s(want))}
		lang.Register(lang.Registration{
			Name: "probe",
			Sig:  lang.Signature{Fixed: 1, Variadic: true},
			New:  func(h lang.Host) lang.Engine { return &probeEngine{st: st} },
		})
		defer lang.Unregister("probe")
		res, err := Run(`
			blob src = probe("emit");
			float xs[] = vunpack(src);
			blob packed = vpack(xs);
			blob seen = probe("capture", packed);
			printf("n=%i", size(xs));
		`, Config{Engines: 1, Workers: 2, Servers: servers})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Stdout, fmt.Sprintf("n=%d", n)) {
			t.Fatalf("stdout = %q, want n=%d", res.Stdout, n)
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		if len(st.got) != 1 {
			t.Fatalf("probe captured %d values, want 1", len(st.got))
		}
		b := st.got[0].AsBlob()
		if !bytes.Equal(b.Data, blob.FromFloat64s(want).Data) || b.Elem != blob.ElemF64 ||
			len(b.Dims) != 1 || b.Dims[0] != n {
			t.Fatalf("n=%d: packed vector differs from the source (elem %v, dims %v)", n, b.Elem, b.Dims)
		}
		return res.ADLB.DataOps, res.ADLB.OpChunkLoad
	}
	t.Run("servers=1", func(t *testing.T) {
		small, smallLoads := trip(t, 500, 1)
		large, largeLoads := trip(t, 1000, 1)
		if small != large {
			t.Fatalf("data ops: %d at n=500, %d at n=1000; want the same", small, large)
		}
		if smallLoads != oneServerLoads || largeLoads != oneServerLoads {
			t.Fatalf("chunk loads: %d at n=500, %d at n=1000; want %d at both",
				smallLoads, largeLoads, oneServerLoads)
		}
		t.Logf("%d data ops, %d chunk load, at either length", small, smallLoads)
	})
	t.Run("servers=2", func(t *testing.T) {
		small, smallLoads := trip(t, 500, 2)
		large, largeLoads := trip(t, 1000, 2)
		for _, l := range []int64{smallLoads, largeLoads} {
			if l > maxLoads {
				t.Fatalf("chunk loads: %d at n=500, %d at n=1000; want 0 to %d at each",
					smallLoads, largeLoads, maxLoads)
			}
		}
		if small-smallLoads != large-largeLoads {
			t.Fatalf("data ops other than chunk loads: %d at n=500, %d at n=1000; want the same",
				small-smallLoads, large-largeLoads)
		}
		t.Logf("%d data ops other than chunk loads at either length", small-smallLoads)
	})
}
