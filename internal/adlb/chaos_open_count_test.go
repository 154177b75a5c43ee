package adlb_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/adlb"
	"repro/internal/faultinject"
	"repro/internal/lang"
	"repro/internal/mpi"
	"repro/internal/stc"
	"repro/internal/tcl"
	"repro/internal/turbine"
)

// TestOpenCountMatchesScanAfterChaos: the servers' running count of open
// data agrees with a scan of their stores at drain after a refcount
// balance chaos run — a scatter, a python leaf per element and a gather
// on two servers, with one injected engine panic — and both read zero:
// the retried leaf leaked no write refcount.
func TestOpenCountMatchesScanAfterChaos(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.SiteLangEvalPre, faultinject.Plan{
		Hit: 2, Action: faultinject.ActPanic, Msg: "injected crash under refcounts",
	})
	compiled, err := stc.Compile(`
		float xs[];
		foreach i in [0:7] {
			xs[i] = itof(i) * 0.5;
		}
		blob packed = vpack(xs);
		float ys[] = vunpack(packed);
		float sq[];
		foreach y, i in ys {
			sq[i] = python("", "argv1 * argv1", y);
		}
		blob packed2 = vpack(sq);
		float total = python("", "sum(argv1)", packed2);
		printf("%f", total);
	`)
	if err != nil {
		t.Fatal(err)
	}
	script, err := compiled.Script()
	if err != nil {
		t.Fatal(err)
	}
	const engines, workers, servers = 1, 4, 2
	var mu sync.Mutex
	var out strings.Builder
	st := &adlb.Stats{}
	cfg := &turbine.Config{
		Engines: engines, Servers: servers, Stats: st, ProgramScript: script, Main: compiled.Main,
		Setup: func(in *tcl.Interp, env *turbine.Env) error {
			w := writerFunc(func(p []byte) (int, error) {
				mu.Lock()
				defer mu.Unlock()
				return out.Write(p)
			})
			in.Out = w
			env.Langs = lang.Install(in, lang.Host{Out: w}, lang.PolicyRetain, nil, lang.Registered()...)
			return nil
		},
	}
	// turbine.Run's own server config, with the servers run here.
	acfg := adlb.Config{Servers: servers, Types: 2, Stats: st, StaticClients: engines}
	world, err := mpi.NewWorld(engines + workers + servers)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int][2]int)
	err = world.Run(func(c *mpi.Comm) error {
		if cfg.RoleOf(c.Rank(), c.Size()) != turbine.RoleServer {
			return turbine.Run(c, cfg)
		}
		counted, scanned, err := adlb.ServeCountingOpen(c, acfg)
		mu.Lock()
		counts[c.Rank()] = [2]int{counted, scanned}
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatalf("run failed instead of recovering: %v", err)
	}
	if st.Requeued.Load() != 1 || !strings.Contains(out.String(), "35.000000") {
		t.Fatalf("%d leaves requeued, want the one the injected panic failed; stdout %q, want the total 35.000000",
			st.Requeued.Load(), out.String())
	}
	if len(counts) != servers {
		t.Fatalf("%d servers reported, want %d", len(counts), servers)
	}
	for rank, n := range counts {
		if n[0] != n[1] || n[0] != 0 {
			t.Errorf("server rank %d: %d open counted, %d by a scan, want 0", rank, n[0], n[1])
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
