package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/lang"
)

// TestLentBlobsFromAnotherServer runs a blob through python, r and julia
// on two servers with one worker, homed on the server the engine is not.
// Every TD is minted by the engine, so its owner is the engine's home
// server; the worker gets each leaf by a steal, with no rows, and loads
// each blob argument by a read of the other server. So every engine
// views its blob where that read's reply frame holds it — a frame the
// worker's next read or Get releases — and the fragment that keeps
// argv1 (python's `keep = argv1`) must keep a copy: a later leaf, after
// other blobs have come through the worker, hands keep back bit-exact.
// (r doubles the blob, so a view of a reused frame would not pass.)
func TestLentBlobsFromAnotherServer(t *testing.T) {
	xs, twice := make([]float64, 4096), make([]float64, 4096)
	var sum float64
	for i := range xs {
		xs[i] = float64(i%97) + 0.25
		twice[i] = 2 * xs[i]
		sum += twice[i]
	}
	src := blob.FromFloat64s(xs)
	st := &probeState{src: lang.BlobOf(src)}
	lang.Register(lang.Registration{
		Name: "probe",
		Sig:  lang.Signature{Fixed: 1, Variadic: true},
		New:  func(h lang.Host) lang.Engine { return &probeEngine{st: st} },
	})
	defer lang.Unregister("probe")

	res, err := Run(`
		blob v = probe("emit");
		blob a = python("keep = argv1", "argv1", v);
		blob b = r("", "argv1 * 2", a);
		blob c = julia("", "argv1", b);
		blob d = python("", "keep", c);
		float s = python("", "sum(argv1)", c);
		blob e1 = probe("capture", c);
		blob e2 = probe("capture", d);
		printf("s=%.17g", s);
	`, Config{Engines: 1, Workers: 1, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("s=%.17g", sum); !strings.Contains(res.Stdout, want) {
		t.Fatalf("stdout = %q, want %q", res.Stdout, want)
	}
	// Seven leaves take a blob argument, each loaded by a read.
	if res.ADLB.OpChunkLoad < 7 {
		t.Fatalf("%d chunk loads at the servers, want at least 7: the worker's blobs did not come by a read", res.ADLB.OpChunkLoad)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.got) != 2 {
		t.Fatalf("captured %d values, want 2", len(st.got))
	}
	// c is twice v, through r and julia; d is python's keep, still v.
	want := map[string]bool{string(blob.FromFloat64s(twice).Data): true, string(src.Data): true}
	for _, got := range st.got {
		if !want[string(got.AsBlob().Data)] {
			t.Fatalf("captured %x..., want v and twice v once each", got.AsBlob().Data[:16])
		}
		delete(want, string(got.AsBlob().Data))
	}
}
