package serve

// Warm-vs-cold serving benchmarks. The point of swiftd is amortization:
// a repeat fragment on the resident warm world (pooled interpreter,
// parse-cached fragment, live ADLB ranks) against the cold alternative
// of standing up a whole per-request world the way batch core.Run does.

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// timeOp returns the mean wall time of reps sequential runs of op.
func timeOp(reps int, op func()) time.Duration {
	start := time.Now()
	for i := 0; i < reps; i++ {
		op()
	}
	return time.Since(start) / time.Duration(reps)
}

// median is the middle of an odd number of durations.
func median(ds []time.Duration) time.Duration {
	return slices.Sorted(slices.Values(ds))[len(ds)/2]
}

// coldFragmentProgram is the batch-world equivalent of one warm
// fragment call: a full Swift program whose body is the same python
// fragment, run in a fresh world each time.
const coldFragmentProgram = `printf("%s", python("x = 6 * 7", "x"));`

func coldFragment(tb testing.TB) {
	res, err := core.Run(coldFragmentProgram, core.Config{
		Engines: 1, Workers: 2, Servers: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if !strings.Contains(res.Stdout, "42") {
		tb.Fatalf("cold fragment stdout = %q", res.Stdout)
	}
}

func warmFragment(tb testing.TB, s *Server) {
	res, err := s.EvalFragment(FragmentRequest{
		Tenant: "bench", Lang: "python", Code: "x = 6 * 7", Expr: "x", Want: "int",
	})
	if err != nil {
		tb.Fatal(err)
	}
	if res.Value.Int != 42 {
		tb.Fatalf("warm fragment = %+v", res.Value)
	}
}

// BenchmarkServeConcurrentClients measures repeat-fragment latency on
// the two paths: "warm" drives concurrent clients at one resident
// server; "cold" pays a fresh world per request. The warm/cold ratio is
// the service's reason to exist; TestWarmServeSpeedupOverColdWorlds
// enforces its floor.
func BenchmarkServeConcurrentClients(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		s := newTestServer(b, Config{Workers: 4,
			Tenants: map[string]TenantConfig{
				"bench": {MaxConcurrent: 16, MaxQueue: 64},
			}})
		warmFragment(b, s) // prime pools and parse caches
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				warmFragment(b, s)
			}
		})
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coldFragment(b)
		}
	})
}

// TestWarmServeSpeedupOverColdWorlds enforces the acceptance floor: a
// repeat fragment against the warm service must be at least 5x faster
// than standing up a cold world for it. In practice the gap is orders
// of magnitude; 5x leaves room for CI noise while still failing if the
// serve path ever degenerates into per-request world setup. The two
// arms alternate, round by round, and their medians are compared, so a
// burst of load from tests running alongside hits both arms or is
// outvoted, not one arm alone.
func TestWarmServeSpeedupOverColdWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	s := newTestServer(t, Config{Workers: 2})
	warmFragment(t, s) // prime

	const rounds, warmPerRound = 7, 6
	var warms, colds []time.Duration
	for range rounds {
		warms = append(warms, timeOp(warmPerRound, func() { warmFragment(t, s) }))
		colds = append(colds, timeOp(1, func() { coldFragment(t) }))
	}
	warm, cold := median(warms), median(colds)
	ratio := float64(cold) / float64(warm)
	t.Logf("repeat fragment: warm %v/op, cold %v/op, speedup %.1fx", warm, cold, ratio)
	if ratio < 5 {
		t.Fatalf("warm path only %.1fx faster than cold worlds, want >= 5x", ratio)
	}
}
