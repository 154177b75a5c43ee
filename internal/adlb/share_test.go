package adlb

// A leased Get brings back the worker's share of the queue: up to
// maxDelivery items, held by the client and handed out one per
// GetLeased, whose settles ride the next Get that goes to the server.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestGetShareOfTheQueue pins the share rule on one server with four
// running clients, one of which drains a queue of 40 items while the
// others wait: a Get that reaches the server carries its first item and
// min(maxDelivery-1, left/4) more, where left is what the first leaves
// queued — never more than min(maxDelivery, 1+queued/4) — so the shares
// shrink with the queue and its last items go one per Get.
func TestGetShareOfTheQueue(t *testing.T) {
	const items, clients = 40, 4
	done := make(chan struct{})
	runWorld(t, clients+1, 1, func(cl *Client) error {
		if cl.Rank() != 0 {
			<-done // running, not parked: the share divides among all four
			return noMoreWork(cl)
		}
		release := sync.OnceFunc(func() { close(done) })
		defer release()
		for i := 0; i < items; i++ {
			if err := cl.Put(typeWork, 0, AnyRank, []byte{byte(i)}); err != nil {
				return err
			}
		}
		var shares []int
		for queued := items; queued > 0; queued-- {
			p, _, ok, err := cl.GetLeased(typeWork)
			if err != nil || !ok {
				return fmt.Errorf("item %d: ok=%v err=%v", items-queued, ok, err)
			}
			if int(p[0]) != items-queued {
				return fmt.Errorf("item %d handed out as %d", items-queued, p[0])
			}
			if cl.next != 1 {
				continue // a held item: no Get went to the server
			}
			n := len(cl.items)
			shares = append(shares, n)
			if want := 1 + min(maxDelivery-1, (queued-1)/clients); n != want {
				return fmt.Errorf("a Get with %d queued brought %d items, want %d", queued, n, want)
			}
		}
		if got := fmt.Sprint(shares); got != "[8 8 6 5 4 3 2 1 1 1 1]" {
			return fmt.Errorf("shares %s", got)
		}
		release()
		return noMoreWork(cl)
	})
}

// TestLargeItemsAndResultsTravelAlone: sharing saves round trips, which
// only small items notice, so a share stops before its reply passes
// maxBatchBytes, and a held task's result past that bound goes to the
// server, in a Get that wants nothing, before the next held task starts,
// where a small one waits for the next Get.
func TestLargeItemsAndResultsTravelAlone(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		big := bytes.Repeat([]byte{7}, maxBatchBytes/3+1)
		for i := 0; i < 6; i++ {
			if err := cl.Put(typeWork, 0, AnyRank, append([]byte{byte(i)}, big...)); err != nil {
				return err
			}
		}
		stores := cl.cfg.Stats.OpStore.Load
		var shares []int
		for i := 0; i < 6; i++ {
			if _, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok {
				return fmt.Errorf("item %d: ok=%v err=%v", i, ok, err)
			}
			if cl.next == 1 {
				shares = append(shares, len(cl.items))
			}
			switch i {
			case 1: // the result of item 0 was small: it waits
				if stores() != 0 {
					return fmt.Errorf("a small result went out before the next Get")
				}
			case 3: // item 2's is large: it went out before item 3 started
				if stores() != 3 {
					return fmt.Errorf("%d results stored before item 3 started, want 3", stores())
				}
			}
			out, err := cl.Unique()
			if err != nil {
				return err
			}
			v := IntValue(int64(i))
			if i == 2 {
				v = BlobValue(make([]byte, maxBatchBytes))
			}
			if err := cl.Store(out, v); err != nil {
				return err
			}
		}
		if got := fmt.Sprint(shares); got != "[2 2 2]" {
			return fmt.Errorf("shares %s, want [2 2 2]", got)
		}
		return noMoreWork(cl)
	})
}

// TestHeldItemsOutliveRPCs: the items of one reply alias its frame,
// which stays out of the LIFO frame pool until every item is handed out
// and the Get carrying their settles is on the wire. Each of three
// held tasks passes its input straight through as its result, after
// RPCs that cycle frames of the reply's size through the pool; the
// inputs and results must read back intact.
func TestHeldItemsOutliveRPCs(t *testing.T) {
	const tasks = 3
	runWorld(t, 2, 1, func(cl *Client) error {
		fill := func(i int) []byte { return bytes.Repeat([]byte{byte(0xA0 + i)}, 4096) }
		churn, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Store(churn, BlobValue(bytes.Repeat([]byte{0x11}, 4096))); err != nil {
			return err
		}
		ins, outs := make([]int64, tasks), make([]int64, tasks)
		for i := range ins {
			if ins[i], err = cl.Unique(); err != nil {
				return err
			}
			if outs[i], err = cl.Unique(); err != nil {
				return err
			}
			if err := cl.Store(ins[i], BlobValue(fill(i))); err != nil {
				return err
			}
			if err := cl.Put(typeWork, 0, AnyRank, []byte{byte(i)}, ins[i]); err != nil {
				return err
			}
		}
		// The check waits on the results: the Get carrying them releases it.
		if err := sent(cl, cl.Put(typeWork, 0, AnyRank, []byte("check"), outs...)); err != nil {
			return err
		}
		for i := 0; i < tasks; i++ {
			p, _, ok, err := cl.GetLeased(typeWork)
			if err != nil || !ok || len(p) != 1 || int(p[0]) != i {
				return fmt.Errorf("task %d: %q ok=%v err=%v", i, p, ok, err)
			}
			if i == 0 && len(cl.items) != tasks {
				return fmt.Errorf("the first Get brought %d items, want %d", len(cl.items), tasks)
			}
			for range 4 {
				if v, _, err := cl.Retrieve(churn); err != nil || v.Bytes[0] != 0x11 {
					return fmt.Errorf("task %d: churn retrieve: %v", i, err)
				}
			}
			v, found, err := cl.Retrieve(ins[i])
			if err != nil || !found || !bytes.Equal(v.Bytes, fill(i)) {
				return fmt.Errorf("task %d: its input does not read back intact (found %v, err %v)", i, found, err)
			}
			if err := cl.Store(outs[i], v); err != nil {
				return err
			}
		}
		if err := takeRule(cl, "check"); err != nil {
			return err
		}
		c, err := cl.RetrieveChunk(outs)
		if err != nil {
			return err
		}
		r := c.Reader()
		for i := 0; r.Next(); i++ {
			if !bytes.Equal(r.Bytes(), fill(i)) {
				return fmt.Errorf("result %d corrupted", i)
			}
		}
		if _, hits, _ := cl.Comm().World().FramePoolStats(); hits == 0 {
			return fmt.Errorf("frame pool recorded no reuse")
		}
		return noMoreWork(cl)
	})
}

// TestLeaveWithHeldItems keeps the crash window at one task. On two
// servers, a worker holds five items of its home server's queue, and
// its first task's output lives on the other server: that Store goes
// out as the task ends, so the task's settle reaches the server, in a
// Get that wants nothing, before the second task starts. The worker then
// departs holding the second task and three unstarted ones, by Leave
// and by the synthesized crash Leave. Either way every task completes
// exactly once, with no store refused (the re-run of a finished task
// whose Store had landed would be); a Leave hands back the unstarted
// items with no attempt charged (only the task it ran is requeued with
// one), while the crash Leave charges each lease the worker held.
func TestLeaveWithHeldItems(t *testing.T) {
	const tasks = 9 // the doomed worker's share: 1 + min(7, 8/2)
	for _, c := range []struct {
		name            string
		leave           func(cl *Client) error
		requeued, taken int64
	}{
		{"Leave", (*Client).Leave, 1, 4},
		{"crash", func(cl *Client) error { return NotifyCrashed(cl.Comm().World(), 2, cl.Rank()) }, 4, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
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
			// Clients 0 and 1 are served by server 0, client 2 by server 1.
			snap, err := runWorldCfg(t, 5, testConfig(2), func(cl *Client) error {
				switch cl.Rank() {
				case 0:
					for k := range outs {
						outs[k] = int64(heldBase + 2*k) // on server 0, the worker's home
						if k == 0 {
							outs[k]++ // on server 1
						}
						if err := cl.Create(outs[k], TypeInteger); err != nil {
							return err
						}
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
							return fmt.Errorf("output %d reads %d", k, r.Int())
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
					if err != nil || !ok || p[0] != 0 {
						return fmt.Errorf("first task: %q ok=%v err=%v", p, ok, err)
					}
					if len(cl.items) != 5 {
						return fmt.Errorf("the worker holds %d items, want 5", len(cl.items))
					}
					if err := run(cl, p); err != nil {
						return err
					}
					if p, _, ok, err = cl.GetLeased(typeWork); err != nil || !ok || p[0] != 1 {
						return fmt.Errorf("second task: %q ok=%v err=%v", p, ok, err)
					}
					return c.leave(cl)
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
			if snap.Requeued != c.requeued || snap.LeasesReclaimed != c.taken || snap.Poisoned != 0 {
				t.Errorf("Requeued %d, LeasesReclaimed %d, Poisoned %d; want %d, %d, 0",
					snap.Requeued, snap.LeasesReclaimed, snap.Poisoned, c.requeued, c.taken)
			}
		})
	}
}

// TestHeldItemsAnswerOnlyTheirType: while a client holds items, a Get
// of another type, or one not leased, is refused rather than parked
// with the items stranded.
func TestHeldItemsAnswerOnlyTheirType(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		for i := 0; i < 3; i++ {
			if err := cl.Put(typeWork, 0, AnyRank, []byte{byte(i)}); err != nil {
				return err
			}
		}
		if _, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok {
			return fmt.Errorf("first Get: ok=%v err=%v", ok, err)
		}
		if _, _, _, err := cl.GetLeased(typeControl); err == nil || !strings.Contains(err.Error(), "holding 2 leased item(s)") {
			return fmt.Errorf("a Get of another type: %v", err)
		}
		if _, _, err := cl.Get(typeWork); err == nil {
			return fmt.Errorf("a Get not leased was answered while items are held")
		}
		for i := 1; i < 3; i++ {
			if p, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok || int(p[0]) != i {
				return fmt.Errorf("held item %d: %q ok=%v err=%v", i, p, ok, err)
			}
		}
		return noMoreWork(cl)
	})
}
