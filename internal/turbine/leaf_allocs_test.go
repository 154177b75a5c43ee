package turbine

import (
	"fmt"
	"testing"

	"repro/internal/adlb"
	"repro/internal/chunk"
	"repro/internal/lang"
	"repro/internal/mpi"
	"repro/internal/tcl"
)

// noopEngine returns its first argument, or "" with none: a leaf that
// crosses every layer outside the evaluators and does nothing at the end.
type noopEngine struct{}

func (noopEngine) Name() string { return "noop" }
func (noopEngine) Reset()       {}
func (noopEngine) Eval(c lang.Call) (lang.Value, error) {
	if len(c.Args) == 0 {
		return lang.Str(""), nil
	}
	return c.Args[0], nil
}

// leafPathRecords builds n leaf records of the ensemble's first stage,
// python("", "argv1*2+1", x) into a float: leaf i waits on id 2i+1 and
// stores 2i+2, the ids a fresh one-server world's first Unique block
// holds.
func leafPathRecords(t testing.TB, n int) [][]byte {
	recs := make([][]byte, n)
	var scratch chunk.Chunk
	for i := range recs {
		l := lang.Leaf{Engine: "noop", Out: int64(2*i + 2), OutType: "float", Args: []lang.Operand{
			{Imm: true, Val: lang.Str("")}, {Imm: true, Val: lang.Str("argv1*2+1")}, {ID: int64(2*i + 1)}}}
		rec, err := leafRecord(nil, &l, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	return recs
}

// runLeafPath runs recs through one server and two turbine workers. Rank
// 0 drives: it takes the ids, Puts each leaf as a rule on its input and
// then Stores the input, which releases it, and parks in Get until the
// run ends. The workers run each leaf on the noop engine and store its
// result, with no Tcl on the way.
func runLeafPath(t testing.TB, recs [][]byte) {
	cfg := &Config{Engines: 1, Servers: 1, Setup: func(in *tcl.Interp, env *Env) error {
		env.Langs = lang.Install(in, lang.Host{}, lang.PolicyRetain, nil, lang.Registration{
			Name: "noop", Sig: lang.Signature{Fixed: 2, Variadic: true},
			New: func(lang.Host) lang.Engine { return noopEngine{} },
		})
		return nil
	}}
	w, err := mpi.NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return Run(c, cfg)
		}
		cl, err := adlb.NewClient(c, cfg.adlbConfig())
		if err != nil {
			return err
		}
		for i := 0; i < 2*len(recs); i++ {
			if id, err := cl.Unique(); err != nil || id != int64(i+1) {
				return fmt.Errorf("id %d: got %d, %v", i+1, id, err)
			}
		}
		for i, rec := range recs {
			if err := cl.Put(TypeWork, 0, adlb.AnyRank, rec, int64(2*i+1)); err != nil {
				return err
			}
			if err := cl.Store(int64(2*i+1), adlb.FloatValue(float64(i)+0.25)); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		if _, ok, err := cl.Get(TypeControl); ok || err != nil {
			return fmt.Errorf("rank 0 got control work (%v) or an error: %v", ok, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLeafPathAllocs pins what a leaf costs outside the evaluators and
// Tcl: the allocations of one server and two workers moving a leaf —
// its rule held and released, queued, delivered with its input's row,
// decoded, run on a no-op engine and its result stored — at 2 a leaf or
// fewer. It is the difference between runs of 2000 and 500 leaves, so a
// world's stand-up cancels. Rank 0 feeds pre-built records, its Puts
// and Stores encoding into pooled frames; a Store keeps nothing of its
// value, so its FloatValue stays on the stack. (Run with -v for the
// figure.)
func TestLeafPathAllocs(t *testing.T) {
	const small, large = 500, 2000
	allocs := func(n int) float64 {
		recs := leafPathRecords(t, n)
		return testing.AllocsPerRun(3, func() { runLeafPath(t, recs) })
	}
	a, b := allocs(small), allocs(large)
	perLeaf := (b - a) / (large - small)
	t.Logf("allocations: %.0f at %d leaves, %.0f at %d: %.2f a leaf", a, small, b, large, perLeaf)
	if perLeaf > 2 {
		t.Fatalf("a leaf costs the server and workers %.2f allocations, want <= 2", perLeaf)
	}
}
