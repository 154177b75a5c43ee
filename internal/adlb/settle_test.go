package adlb

// A lease ends one way: a settle riding a Get — a task done, failed, or
// handed back never started — and a departure is a Get that departs. So
// a Leave applies the writes of the tasks that ended, a Fail carries the
// entries ahead of it, and a lease settles at most once.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestLeaveSettlesEndedTasks: on one server, a worker holds a share of
// five items. Task A ends with its result pending, the held task B
// starts, and the worker Leaves, B's pending result with it. The Leave
// is one request frame, and applies A's result: A runs once and its
// output reads its value. Only B is requeued with an attempt charged
// (Requeued counts each attempt charged), and the three items never
// started are handed back and run once, charged nothing; all four
// leases count as reclaimed. B's re-run stores its value, and each
// output is stored once.
func TestLeaveSettlesEndedTasks(t *testing.T) {
	const tasks, share = 13, 5 // the worker's share: 1 + min(7, 12/3)
	var mu sync.Mutex
	runs := map[int]int{}
	queued, left := make(chan struct{}), make(chan struct{})
	outs := make([]int64, tasks)
	run := func(cl *Client, p []byte) error {
		k := int(p[0])
		mu.Lock()
		runs[k]++
		mu.Unlock()
		return cl.Store(outs[k], IntValue(int64(10*k)))
	}
	snap, err := runWorldCfg(t, 4, testConfig(1), func(cl *Client) error {
		switch cl.Rank() {
		case 0:
			for k := range outs {
				id, err := cl.Unique()
				if err != nil {
					return err
				}
				outs[k] = id
				if err := cl.Put(typeWork, 0, AnyRank, []byte{byte(k)}); err != nil {
					return err
				}
			}
			if err := sent(cl, cl.Put(typeControl, 0, 0, []byte("check"), outs...)); err != nil {
				return err
			}
			close(queued)
			if p, ok, err := cl.Get(typeControl); err != nil || !ok || string(p) != "check" {
				return fmt.Errorf("no check rule: %q ok=%v err=%v", p, ok, err)
			}
			got, err := cl.RetrieveChunk(outs)
			if err != nil {
				return err
			}
			r := got.Reader()
			for k := 0; r.Next(); k++ {
				if r.Int() != int64(10*k) {
					return fmt.Errorf("output %d reads %d, want %d", k, r.Int(), 10*k)
				}
			}
			if p, ok, err := cl.Get(typeControl); err != nil || ok {
				return fmt.Errorf("a further delivery: %q, %v", p, err)
			}
			return nil
		case 1:
			<-queued
			defer close(left)
			p, _, ok, err := cl.GetLeased(typeWork)
			if err != nil || !ok {
				return fmt.Errorf("task A: %q ok=%v err=%v", p, ok, err)
			}
			if len(cl.items) != share {
				return fmt.Errorf("the worker holds %d items, want %d", len(cl.items), share)
			}
			if err := run(cl, p); err != nil {
				return err
			}
			before := framesSent(cl)
			if p, _, ok, err = cl.GetLeased(typeWork); err != nil || !ok {
				return fmt.Errorf("task B: %q ok=%v err=%v", p, ok, err)
			}
			if err := cl.Store(outs[p[0]], IntValue(-1)); err != nil {
				return err
			}
			if err := cl.Leave(); err != nil {
				return err
			}
			if got := framesSent(cl) - before; got != 2 {
				return fmt.Errorf("starting B and leaving drew %d frames, want 2: one request and its reply", got)
			}
			return nil
		default:
			<-left
			for {
				p, _, ok, err := cl.GetLeased(typeWork)
				if err != nil || !ok {
					return err
				}
				if err := run(cl, p); err != nil {
					return err
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < tasks; k++ {
		if runs[k] != 1 {
			t.Errorf("task %d completed %d times, want 1", k, runs[k])
		}
	}
	if snap.Requeued != 1 || snap.LeasesReclaimed != share-1 || snap.Poisoned != 0 || snap.OpStore != tasks {
		t.Errorf("Requeued %d, LeasesReclaimed %d, Poisoned %d, OpStore %d; want 1, %d, 0, %d",
			snap.Requeued, snap.LeasesReclaimed, snap.Poisoned, snap.OpStore, share-1, tasks)
	}
}

// TestFailWhileHoldingRidesOneGet: a worker holds four items; task 0
// ends with its result pending, and the held doomed task fails. The Fail
// is one request frame carrying both settles, so task 0's result is
// stored by it, and the held items still run with no RPC. The doomed
// task's requeue and poison counts, and the poison error, read as
// TestFailRequeuesUntilPoisoned's and
// TestNonRetriableFailurePoisonsImmediately's.
func TestFailWhileHoldingRidesOneGet(t *testing.T) {
	for _, c := range []struct {
		name      string
		reason    string
		retriable bool
		attempts  int
		requeued  int64
		stores    int64
		errs      []string
	}{
		{"retriable", "task exploded", true, 3, 2, 3, []string{"poisoned", "task exploded", "doomed-task"}},
		{"not retriable", "deterministic user error", false, 1, 0, 1, []string{"not retriable", "deterministic user error"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			attempts := 0
			snap, err := runWorldCfg(t, 2, testConfig(1), func(cl *Client) error {
				outs := make([]int64, 4)
				for k := range outs {
					id, err := cl.Unique()
					if err != nil {
						return err
					}
					outs[k] = id
					payload := fmt.Sprintf("task %d", k)
					if k == 1 {
						payload = "doomed-task"
					}
					if err := cl.Put(typeWork, 0, AnyRank, []byte(payload)); err != nil {
						return err
					}
				}
				p, _, ok, err := cl.GetLeased(typeWork)
				if err != nil || !ok || string(p) != "task 0" || len(cl.items) != len(outs) {
					return fmt.Errorf("first task: %q ok=%v err=%v, holding %d", p, ok, err, len(cl.items))
				}
				if err := cl.Store(outs[0], IntValue(0)); err != nil {
					return err
				}
				p, lease, ok, err := cl.GetLeased(typeWork)
				if err != nil || !ok || string(p) != "doomed-task" {
					return fmt.Errorf("the doomed task: %q ok=%v err=%v", p, ok, err)
				}
				attempts++
				stores := cl.cfg.Stats.OpStore.Load
				if stores() != 0 {
					return fmt.Errorf("task 0's result went out before the Fail")
				}
				before := framesSent(cl)
				if err := cl.Fail(lease, c.reason, c.retriable); err != nil || !c.retriable {
					return err // a poisoned task ends the run
				}
				if got := framesSent(cl) - before; got != 2 {
					return fmt.Errorf("the Fail drew %d frames, want 2: one request and its reply", got)
				}
				if stores() != 1 {
					return fmt.Errorf("%d results stored by the Fail, want task 0's", stores())
				}
				for k := 2; k < len(outs); k++ {
					if p, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok || string(p) != fmt.Sprintf("task %d", k) {
						return fmt.Errorf("held task %d: %q ok=%v err=%v", k, p, ok, err)
					}
					if err := cl.Store(outs[k], IntValue(int64(k))); err != nil {
						return err
					}
				}
				if got := framesSent(cl) - before; got != 2 {
					return fmt.Errorf("the held tasks drew %d frames, want none", got-2)
				}
				for {
					p, lease, ok, err := cl.GetLeased(typeWork)
					if err != nil || !ok {
						return err
					}
					if string(p) != "doomed-task" {
						return fmt.Errorf("%q delivered again", p)
					}
					attempts++
					if err := cl.Fail(lease, c.reason, true); err != nil {
						return err
					}
				}
			})
			if err == nil {
				t.Fatal("expected a poisoned-task error, got clean run")
			}
			for _, want := range c.errs {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
			if attempts != c.attempts || snap.Requeued != c.requeued || snap.Poisoned != 1 || snap.OpStore != c.stores {
				t.Fatalf("attempts %d, Requeued %d, Poisoned %d, OpStore %d; want %d, %d, 1, %d",
					attempts, snap.Requeued, snap.Poisoned, snap.OpStore, c.attempts, c.requeued, c.stores)
			}
		})
	}
}

// TestFailOfEndedLeaseRefused: a lease settles at most once. A task
// ends with its result pending, the next held task starts, and a Fail
// names the ended task's lease while its done settle still waits in the
// client. The done settle goes first in the Fail's Get, so the Fail is
// refused as naming an unknown lease: the task runs once, and its
// result is stored once.
func TestFailOfEndedLeaseRefused(t *testing.T) {
	runs := 0
	snap := runWorld(t, 2, 1, func(cl *Client) error {
		out, err := cl.Unique()
		if err != nil {
			return err
		}
		for _, p := range []string{"task", "next"} {
			if err := cl.Put(typeWork, 0, AnyRank, []byte(p)); err != nil {
				return err
			}
		}
		for {
			p, lease, ok, err := cl.GetLeased(typeWork)
			if err != nil || !ok {
				return err
			}
			if string(p) != "task" {
				continue
			}
			if runs++; runs > 1 {
				return fmt.Errorf("the task ran %d times", runs)
			}
			if err := cl.Store(out, IntValue(7)); err != nil {
				return err
			}
			if p, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok || string(p) != "next" {
				return fmt.Errorf("the held task: %q ok=%v err=%v", p, ok, err)
			}
			err = cl.Fail(lease, "a late failure", true)
			if want := fmt.Sprintf("fail: unknown lease %d", lease); err == nil || !strings.Contains(err.Error(), want) {
				return fmt.Errorf("a Fail of an ended lease: %v, want %q", err, want)
			}
			if v, found, err := cl.Retrieve(out); err != nil || !found || v.Bytes[0] != 7 {
				return fmt.Errorf("the result reads %+v (found %v, err %v), want 7", v, found, err)
			}
		}
	})
	if runs != 1 || snap.OpStore != 1 || snap.Requeued != 0 || snap.Poisoned != 0 {
		t.Fatalf("runs %d, OpStore %d, Requeued %d, Poisoned %d; want 1, 1, 0, 0", runs, snap.OpStore, snap.Requeued, snap.Poisoned)
	}
}

// TestFailDropsAwayWrites: on two servers, a leased task Stores an id
// the other server owns and then Fails retriably. The store is still
// pending for the other server, so the Fail drops it with the task's
// home writes: the Fail settles and returns nil, the task is requeued
// once, and only the re-run stores — whether the id was open, when the
// re-run's store is the one that lands, or already set, which the
// dropped store never learns and the re-run leaves alone.
func TestFailDropsAwayWrites(t *testing.T) {
	for _, set := range []bool{false, true} {
		t.Run(map[bool]string{false: "open", true: "set"}[set], func(t *testing.T) {
			attempts := 0
			snap := runWorld(t, 4, 2, func(cl *Client) error {
				if cl.Rank() != 0 {
					return drainShutdown(cl)
				}
				away, err := heldDatum(cl, 0, 1, set)
				if err := sent(cl, err); err != nil {
					return err
				}
				if err := cl.Put(typeWork, 0, AnyRank, []byte("task")); err != nil {
					return err
				}
				for {
					p, lease, ok, err := cl.GetLeased(typeWork)
					if err != nil || !ok {
						return err
					}
					if attempts++; string(p) != "task" || attempts > 2 {
						return fmt.Errorf("attempt %d: %q", attempts, p)
					}
					if attempts == 1 {
						if err := cl.Store(away, IntValue(1)); err != nil {
							return err
						}
						if err := cl.Fail(lease, "failed after its store", true); err != nil {
							return fmt.Errorf("fail: %v, want the store dropped", err)
						}
						continue
					}
					want := IntValue(0)
					if !set {
						want = IntValue(2)
						if err := cl.Store(away, want); err != nil {
							return err
						}
					}
					if v, found, err := cl.Retrieve(away); err != nil || !found || !equalValue(v, want) {
						return fmt.Errorf("the output reads %+v (found %v, err %v), want %+v", v, found, err, want)
					}
				}
			})
			if attempts != 2 || snap.Requeued != 1 || snap.Poisoned != 0 || snap.OpStore != 1 {
				t.Fatalf("attempts %d, Requeued %d, Poisoned %d, OpStore %d; want 2, 1, 0, 1",
					attempts, snap.Requeued, snap.Poisoned, snap.OpStore)
			}
		})
	}
}
