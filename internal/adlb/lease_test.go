package adlb

// Fault-tolerance tests: the lease lifecycle (issue, implicit settle,
// Fail, reclaim-on-Leave), the bounded retry/poison policy, shutdown
// propagation to parked clients, and the hang watchdog.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mpi"
)

// runWorldCfg is runWorld with a caller-supplied Config and the run
// error returned instead of fatal'd, for tests that expect failures.
func runWorldCfg(t *testing.T, size int, cfg Config, clientFn func(cl *Client) error) (StatsSnapshot, error) {
	t.Helper()
	if cfg.Stats == nil {
		cfg.Stats = &Stats{}
	}
	w, err := mpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	fail := time.AfterFunc(30*time.Second, func() {
		w.Abort(fmt.Errorf("test watchdog: world hung"))
	})
	defer fail.Stop()
	err = w.Run(func(c *mpi.Comm) error {
		l := NewLayout(size, cfg.Servers)
		if l.IsServer(c.Rank()) {
			return Serve(c, cfg)
		}
		cl, err := NewClient(c, cfg)
		if err != nil {
			return err
		}
		return clientFn(cl)
	})
	return cfg.Stats.Snapshot(), err
}

func TestLeaseSettlesImplicitlyOnNextGet(t *testing.T) {
	snap, err := runWorldCfg(t, 2, testConfig(1), func(cl *Client) error {
		for i := 0; i < 3; i++ {
			if err := cl.Put(typeWork, 0, AnyRank, []byte{byte('a' + i)}); err != nil {
				return err
			}
		}
		seen := 0
		for {
			_, lease, ok, err := cl.GetLeased(typeWork)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if lease == 0 {
				return fmt.Errorf("leased Get returned lease id 0")
			}
			seen++
		}
		if seen != 3 {
			return fmt.Errorf("saw %d items, want 3", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Clean exit proves every lease was settled (an unsettled lease with
	// all clients parked would have tripped the watchdog or hung drain).
	if snap.LeasesIssued != 3 {
		t.Fatalf("LeasesIssued = %d, want 3", snap.LeasesIssued)
	}
	if snap.Requeued != 0 || snap.Poisoned != 0 || snap.LeasesReclaimed != 0 {
		t.Fatalf("unexpected fault counters in healthy run: %+v", snap)
	}
}

func TestFailRequeuesUntilPoisoned(t *testing.T) {
	var attempts atomic.Int64
	snap, err := runWorldCfg(t, 2, testConfig(1), func(cl *Client) error {
		if err := cl.Put(typeWork, 7, AnyRank, []byte("doomed-task")); err != nil {
			return err
		}
		for {
			_, lease, ok, err := cl.GetLeased(typeWork)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			attempts.Add(1)
			if err := cl.Fail(lease, "task exploded", true); err != nil {
				return err
			}
		}
	})
	if err == nil {
		t.Fatal("expected a poisoned-task error, got clean run")
	}
	for _, want := range []string{"poisoned", "task exploded", "doomed-task"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	// Default budget: 2 retries => 3 attempts total.
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if snap.Requeued != 2 || snap.Poisoned != 1 {
		t.Fatalf("Requeued = %d, Poisoned = %d; want 2, 1", snap.Requeued, snap.Poisoned)
	}
}

func TestNonRetriableFailurePoisonsImmediately(t *testing.T) {
	snap, err := runWorldCfg(t, 2, testConfig(1), func(cl *Client) error {
		if err := cl.Put(typeWork, 0, AnyRank, []byte("bad-code")); err != nil {
			return err
		}
		_, lease, ok, err := cl.GetLeased(typeWork)
		if err != nil || !ok {
			return fmt.Errorf("get: ok=%v err=%v", ok, err)
		}
		return cl.Fail(lease, "deterministic user error", false)
	})
	if err == nil || !strings.Contains(err.Error(), "not retriable") {
		t.Fatalf("want immediate poison, got %v", err)
	}
	if snap.Requeued != 0 || snap.Poisoned != 1 {
		t.Fatalf("Requeued = %d, Poisoned = %d; want 0, 1", snap.Requeued, snap.Poisoned)
	}
}

func TestLeaveReclaimsLeaseAndSurvivorFinishes(t *testing.T) {
	var survivorSaw atomic.Int64
	snap, err := runWorldCfg(t, 3, testConfig(1), func(cl *Client) error {
		switch cl.Rank() {
		case 0:
			// Pin the task to this rank so the doomed client is the one
			// that receives it, then die holding the lease.
			if err := cl.Put(typeWork, 0, 0, []byte("orphan")); err != nil {
				return err
			}
			payload, lease, ok, err := cl.GetLeased(typeWork)
			if err != nil || !ok || lease == 0 {
				return fmt.Errorf("get: payload=%q lease=%d ok=%v err=%v", payload, lease, ok, err)
			}
			return cl.Leave()
		default:
			for {
				payload, _, ok, err := cl.GetLeased(typeWork)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				if string(payload) != "orphan" {
					return fmt.Errorf("survivor got %q", payload)
				}
				survivorSaw.Add(1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if survivorSaw.Load() != 1 {
		t.Fatalf("survivor executed the orphaned task %d times, want 1", survivorSaw.Load())
	}
	if snap.LeasesReclaimed != 1 || snap.Requeued != 1 || snap.Poisoned != 0 {
		t.Fatalf("reclaim counters: %+v", snap)
	}
}

func TestServerCrashReleasesParkedClient(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// Crash the server loop right after it dispatches its first message
	// — the client's Get, which parks. Without shutdown propagation the
	// client would hang in Recv forever.
	faultinject.Arm(faultinject.SiteServerLoop, faultinject.Plan{
		Hit: 1, Action: faultinject.ActCrash, Msg: "server dies silently",
	})
	_, err := runWorldCfg(t, 2, testConfig(1), func(cl *Client) error {
		payload, ok, err := cl.Get(typeWork)
		if err == nil {
			return fmt.Errorf("Get returned payload=%q ok=%v from a dead server", payload, ok)
		}
		if ok {
			return fmt.Errorf("Get returned ok with an error")
		}
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "shut down") {
		t.Fatalf("want parked-client shutdown error, got %v", err)
	}
}

func TestWatchdogDiagnosesStrandedWork(t *testing.T) {
	cfg := testConfig(1)
	cfg.WatchdogIdle = 5 * time.Millisecond
	_, err := runWorldCfg(t, 3, cfg, func(cl *Client) error {
		if cl.Rank() == 0 {
			// Strand a work item: both clients will only ever ask for
			// control-type work, so nothing can consume it.
			if err := cl.Put(typeWork, 0, AnyRank, []byte("stranded-task")); err != nil {
				return err
			}
		}
		_, ok, err := cl.Get(typeControl)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("unexpected control work delivered")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected hang-watchdog diagnostic, got clean run")
	}
	for _, want := range []string{"hang detected", "type 1: 1 item(s)", "parked clients"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic %q does not mention %q", err, want)
		}
	}
}
