package adlb

// A leased task's result riding the worker's next Get: a Store its home
// server owns joins the Get's entries, so the worker sends a fraction of
// a request per task, the store and the lease settle are one message,
// and a task that fails or departs leaves its output open for its
// re-run. A refused store fails the task as a Fail after it would.

import (
	"bytes"
	"fmt"
	"testing"
)

// framesSent is the frames the world's ranks have sent: on an
// in-process world with one server, every request and every response is
// one.
func framesSent(cl *Client) uint64 { return cl.Comm().World().FramesSent() }

// TestResultRidesNextGet runs n leased tasks, each storing one result
// its home server owns, then a last task that reads them all back. In
// the StoreResult case each task's result is a plain Store, and the
// worker sends one Get per reply of up to maxDelivery items (the one
// worker's share is the whole queue), each carrying the results and
// settles of the tasks before it. In the Store case a Flush follows each
// Store, and the worker sends 2n+1, each task's Store sent, and its
// settle sent, before the next task starts. Both count n stores.
func TestResultRidesNextGet(t *testing.T) {
	const n = 16
	for _, mode := range []struct {
		name     string
		store    func(cl *Client, id int64, v Value) error
		requests int
	}{
		{"StoreResult", (*Client).Store, (n + maxDelivery) / maxDelivery},
		{"Store", func(cl *Client, id int64, v Value) error { return sent(cl, cl.Store(id, v)) }, 2*n + 1},
	} {
		t.Run(mode.name, func(t *testing.T) {
			snap := runWorld(t, 2, 1, func(cl *Client) error {
				ids := make([]int64, n)
				for i := range ids {
					id, err := cl.Unique()
					if err != nil {
						return err
					}
					ids[i] = id
					if err := cl.Put(typeWork, 1, AnyRank, []byte{byte(i)}); err != nil {
						return err
					}
				}
				if err := sent(cl, cl.Put(typeWork, 0, AnyRank, []byte("check"))); err != nil {
					return err
				}
				before := framesSent(cl)
				for i := 0; i < n; i++ {
					p, _, ok, err := cl.GetLeased(typeWork)
					if err != nil || !ok || len(p) != 1 {
						return fmt.Errorf("task %d: %q ok=%v err=%v", i, p, ok, err)
					}
					if err := mode.store(cl, ids[p[0]], IntValue(int64(p[0])*10)); err != nil {
						return err
					}
				}
				if err := takeRule(cl, "check"); err != nil {
					return err
				}
				if got := (framesSent(cl) - before) / 2; got != uint64(mode.requests) {
					return fmt.Errorf("%d tasks cost %d worker requests, want %d", n+1, got, mode.requests)
				}
				c, err := cl.RetrieveChunk(ids)
				if err != nil {
					return err
				}
				r := c.Reader()
				for i := 0; r.Next(); i++ {
					if r.Int() != int64(i)*10 {
						return fmt.Errorf("result %d reads %d", i, r.Int())
					}
				}
				return noMoreWork(cl)
			})
			if snap.OpStore != n {
				t.Fatalf("OpStore = %d, want %d", snap.OpStore, n)
			}
		})
	}
}

// TestResultDroppedByLeaveAndFail: a task that ends in Leave (a crash)
// or Fail after its Store leaves its output open: the Store was still
// pending, and is dropped, so the re-run's store lands once and the run
// succeeds. A rule waiting on the output sees the re-run's value.
func TestResultDroppedByLeaveAndFail(t *testing.T) {
	for _, end := range []string{"Leave", "Fail"} {
		t.Run(end, func(t *testing.T) {
			snap := runWorld(t, 3, 1, func(cl *Client) error {
				if cl.Rank() == 1 {
					return rerun(cl)
				}
				out, err := cl.Unique()
				if err != nil {
					return err
				}
				// The check rule waits on the output; the task is pinned
				// here, so this rank runs its first attempt.
				if err := cl.Put(typeWork, 0, AnyRank, fmt.Appendf(nil, "check %d", out), out); err != nil {
					return err
				}
				if err := cl.Put(typeWork, 0, 0, fmt.Appendf(nil, "task %d", out)); err != nil {
					return err
				}
				p, lease, ok, err := cl.GetLeased(typeWork)
				if err != nil || !ok || string(p) != fmt.Sprintf("task %d", out) {
					return fmt.Errorf("first attempt: %q ok=%v err=%v", p, ok, err)
				}
				if err := cl.Store(out, IntValue(1)); err != nil {
					return err
				}
				if end == "Leave" {
					return cl.Leave()
				}
				// Fail keeps the task pinned here: this rank re-runs it.
				if err := cl.Fail(lease, "lost after its result", true); err != nil {
					return err
				}
				return rerun(cl)
			})
			if snap.Requeued != 1 || snap.Poisoned != 0 || snap.OpStore != 1 || snap.UnfilledTDs != 0 {
				t.Fatalf("requeued %d, poisoned %d, stores %d, unfilled %d; want 1, 0, 1, 0",
					snap.Requeued, snap.Poisoned, snap.OpStore, snap.UnfilledTDs)
			}
		})
	}
}

// rerun is a surviving worker: a task stores 2 into its output as its
// result, and the check rule reads the output back.
func rerun(cl *Client) error {
	for {
		p, _, ok, err := cl.GetLeased(typeWork)
		if err != nil || !ok {
			return err
		}
		var kind string
		var out int64
		if _, err := fmt.Sscanf(string(p), "%s %d", &kind, &out); err != nil {
			return fmt.Errorf("task %q: %v", p, err)
		}
		if kind == "task" {
			if err := cl.Store(out, IntValue(2)); err != nil {
				return err
			}
			continue
		}
		v, found, err := cl.Retrieve(out)
		if err != nil || !found || v.Type != TypeInteger || !bytes.Equal(v.Bytes, IntValue(2).Bytes) {
			return fmt.Errorf("check reads %+v (found %v, err %v), want the re-run's 2", v, found, err)
		}
	}
}

// TestResultRefusedSettlesLikeRefusedStore: a riding store the server
// refuses (already set, wrong type) fails its lease retriably with the
// server's message, exactly as a worker's Fail after a Store refused at
// its Flush: the same requeue and poison counts, and the same poison
// error.
func TestResultRefusedSettlesLikeRefusedStore(t *testing.T) {
	for _, refusal := range []string{"already set", "wrong type"} {
		t.Run(refusal, func(t *testing.T) {
			var runs [2]error
			var snaps [2]StatsSnapshot
			for i, riding := range []bool{false, true} {
				snaps[i], runs[i] = runWorldCfg(t, 2, testConfig(1), func(cl *Client) error {
					out := int64(heldBase)
					if refusal == "already set" {
						if err := cl.Create(out, TypeInteger); err != nil {
							return err
						}
						if err := cl.Store(out, IntValue(1)); err != nil {
							return err
						}
					} else if err := cl.Create(out, TypeFloat); err != nil {
						return err
					}
					if err := cl.Put(typeWork, 0, AnyRank, []byte("refused-task")); err != nil {
						return err
					}
					for {
						_, lease, ok, err := cl.GetLeased(typeWork)
						if err != nil || !ok {
							return err
						}
						if riding {
							if err := cl.Store(out, IntValue(2)); err != nil {
								return err
							}
							continue
						}
						if err := sent(cl, cl.Store(out, IntValue(2))); err != nil {
							if err := cl.Fail(lease, err.Error(), true); err != nil {
								return err
							}
						}
					}
				})
			}
			if runs[0] == nil || runs[1] == nil || runs[0].Error() != runs[1].Error() {
				t.Fatalf("riding store ends the run with\n  %v\nStore then Fail with\n  %v", runs[1], runs[0])
			}
			for i, snap := range snaps {
				if snap.Requeued != 2 || snap.Poisoned != 1 {
					t.Fatalf("riding=%v: requeued %d, poisoned %d; want 2, 1", i == 1, snap.Requeued, snap.Poisoned)
				}
			}
			if snaps[0].OpStore != snaps[1].OpStore {
				t.Fatalf("OpStore %d riding, %d by Store", snaps[1].OpStore, snaps[0].OpStore)
			}
		})
	}
}

// TestResultOwnedElsewhereIsStore: on two servers, a result the other
// server owns goes out before a read, and is readable before the next
// Get; one the home server owns waits for the Get.
func TestResultOwnedElsewhereIsStore(t *testing.T) {
	runWorld(t, 4, 2, func(cl *Client) error {
		if cl.Rank() != 0 {
			return drainShutdown(cl)
		}
		st := cl.cfg.Stats
		home, away := int64(heldBase), int64(heldBase+1)
		for _, id := range []int64{home, away} {
			if err := cl.Create(id, TypeInteger); err != nil {
				return err
			}
		}
		for _, p := range []string{"home", "away"} {
			if err := cl.Put(typeWork, 0, 0, []byte(p)); err != nil {
				return err
			}
		}
		for {
			p, _, ok, err := cl.GetLeased(typeWork)
			if err != nil || !ok {
				return err
			}
			id, stored := home, int64(0)
			if string(p) == "away" {
				id, stored = away, 1
			}
			stores := st.OpStore.Load()
			if err := cl.Store(id, IntValue(7)); err != nil {
				return err
			}
			if id == away {
				if v, found, err := cl.Retrieve(away); err != nil || !found || v.Type != TypeInteger {
					return fmt.Errorf("away result not readable at once: %+v %v %v", v, found, err)
				}
			}
			if got := st.OpStore.Load() - stores; got != stored {
				return fmt.Errorf("%s result: %d stores before the next Get, want %d", p, got, stored)
			}
		}
	})
}

// TestResultReleasesRuleToSameGet: the riding store closes the id a held
// rule waits on, and the Get that carries it is served that rule, the
// value among its rows, in one request.
func TestResultReleasesRuleToSameGet(t *testing.T) {
	snap := runWorld(t, 2, 1, func(cl *Client) error {
		out, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Put(typeWork, 0, AnyRank, []byte("rule"), out); err != nil {
			return err
		}
		if err := cl.Put(typeWork, 0, AnyRank, []byte("task")); err != nil {
			return err
		}
		if err := takeRule(cl, "task"); err != nil {
			return err
		}
		if err := cl.Store(out, StringValue("released")); err != nil {
			return err
		}
		before := framesSent(cl)
		if err := takeRule(cl, "rule"); err != nil {
			return err
		}
		if got := (framesSent(cl) - before) / 2; got != 1 {
			return fmt.Errorf("store, settle and the released rule took %d requests, want 1", got)
		}
		loads := cl.cfg.Stats.OpChunkLoad.Load()
		v, found, err := cl.Retrieve(out)
		if err != nil || !found || string(v.Bytes) != "released" {
			return fmt.Errorf("rule reads %q (found %v, err %v)", v.Bytes, found, err)
		}
		if cl.cfg.Stats.OpChunkLoad.Load() != loads {
			return fmt.Errorf("the released rule loaded its input instead of reading its row")
		}
		return noMoreWork(cl)
	})
	if snap.OpStore != 1 || snap.DataOps != 1 {
		t.Fatalf("OpStore %d, DataOps %d; want the riding store counted once as both", snap.OpStore, snap.DataOps)
	}
}

// TestFailedTaskStoreLeavesOutputOpen: on one server, a leased task
// Stores an output its home server owns and then fails retriably. The
// Store was still pending, so the Fail drops it: the re-run's store is
// the only one, and the output reads the re-run's value.
func TestFailedTaskStoreLeavesOutputOpen(t *testing.T) {
	attempts := 0
	snap := runWorld(t, 2, 1, func(cl *Client) error {
		out, err := cl.Unique()
		if err != nil {
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
			if err := cl.Store(out, IntValue(int64(attempts))); err != nil {
				return err
			}
			if attempts == 1 {
				if err := cl.Fail(lease, "failed after its store", true); err != nil {
					return err
				}
				continue
			}
			if v, found, err := cl.Retrieve(out); err != nil || !found || !equalValue(v, IntValue(2)) {
				return fmt.Errorf("the output reads %+v (found %v, err %v), want the re-run's 2", v, found, err)
			}
		}
	})
	if attempts != 2 || snap.Requeued != 1 || snap.Poisoned != 0 || snap.OpStore != 1 {
		t.Fatalf("attempts %d, Requeued %d, Poisoned %d, OpStore %d; want 2, 1, 0, 1",
			attempts, snap.Requeued, snap.Poisoned, snap.OpStore)
	}
}

// TestHeldTaskFrames: a worker holds a share of three items. A task that
// only Stores an output its home server owns sends nothing before the
// next held item starts: its store waits for the next Get. A task that
// Puts sends one request frame before the next held item starts — its
// writes and the pending settles in one Get that wants nothing — so the
// item it made is queued while the worker runs on.
func TestHeldTaskFrames(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		out, err := cl.Unique()
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := cl.Put(typeWork, 0, AnyRank, []byte{byte(i)}); err != nil {
				return err
			}
		}
		if p, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok || p[0] != 0 || len(cl.items) != 3 {
			return fmt.Errorf("first task: %q ok=%v err=%v, holding %d", p, ok, err, len(cl.items))
		}
		frames := func(task func() error) (uint64, error) {
			before := framesSent(cl)
			if err := task(); err != nil {
				return 0, err
			}
			if p, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok || len(p) != 1 {
				return 0, fmt.Errorf("the next held task: %q ok=%v err=%v", p, ok, err)
			}
			return framesSent(cl) - before, nil
		}
		stores, err := frames(func() error { return cl.Store(out, IntValue(1)) })
		if err != nil {
			return err
		}
		puts, err := frames(func() error { return cl.Put(typeWork, 0, AnyRank, []byte("made")) })
		if err != nil {
			return err
		}
		if stores != 0 || puts != 2 {
			return fmt.Errorf("a Store drew %d frames and a Put %d before the next held task; want 0, and 2: one request and its reply", stores, puts)
		}
		if n := cl.cfg.Stats.PutsLocal.Load(); n != 4 {
			return fmt.Errorf("%d items queued before the third task ran, want the Put's too", n)
		}
		if err := takeRule(cl, "made"); err != nil {
			return err
		}
		if v, found, err := cl.Retrieve(out); err != nil || !found || !equalValue(v, IntValue(1)) {
			return fmt.Errorf("the output reads %+v (found %v, err %v)", v, found, err)
		}
		return noMoreWork(cl)
	})
}
