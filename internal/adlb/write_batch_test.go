package adlb

// Writes in batches: a client's Puts, Creates, Stores, Inserts,
// refcount changes and StoreChunks to one server ride one frame, a
// Get's entries, which the server answers once. These pin what that must not change: program
// order across servers, deliveries a batched write releases to other
// clients, a refusal's effect and text, and a frame's byte bound.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestBatchKeepsOrderAcrossServers: a client creates an id on server 1,
// then puts a rule at server 0 that waits on a closed id of server 0
// and on the new one, then fills server 0's frame to its cap. Server 0
// forwards the rule to server 1 at once, so the Create must be there
// first: a frame for one server goes out before a write for another is
// queued, not when some later call sends every pending frame.
func TestBatchKeepsOrderAcrossServers(t *testing.T) {
	runWorld(t, 4, 2, func(cl *Client) error {
		if cl.Rank() != 0 {
			return drainShutdown(cl)
		}
		a, err := heldDatum(cl, 0, 0, true)
		if err != nil {
			return err
		}
		b, err := heldDatum(cl, 0, 1, false)
		if err != nil {
			return err
		}
		if err := cl.Put(typeWork, 0, AnyRank, []byte("rule"), a, b); err != nil {
			return err
		}
		for k := 1; k < maxBatch; k++ {
			if err := cl.Create(int64(heldBase+2*k), TypeInteger); err != nil {
				return err
			}
		}
		if err := cl.Store(b, IntValue(1)); err != nil {
			return err
		}
		if err := takeRule(cl, "rule"); err != nil {
			return err
		}
		return noMoreWork(cl)
	})
}

// TestBatchDeliversReleasedRuleToParkedClient: a Store in a batch of
// several writes closes an id a parked client's rule waits on. The rule
// goes to that client at once; only the batching client's own reply is
// folded into the batch's.
func TestBatchDeliversReleasedRuleToParkedClient(t *testing.T) {
	idCh, ready := make(chan int64, 1), make(chan struct{})
	runWorld(t, 3, 1, func(cl *Client) error {
		switch cl.Rank() {
		case 0:
			x, y := int64(heldBase), int64(heldBase+1)
			if err := sent(cl, cl.Create(x, TypeInteger)); err != nil {
				return err
			}
			idCh <- x
			<-ready
			for cl.cfg.Stats.GetsParked.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			for _, err := range []error{
				cl.Create(y, TypeInteger),
				cl.Store(x, IntValue(5)),
				cl.Store(y, IntValue(6)),
				cl.Flush(),
			} {
				if err != nil {
					return err
				}
			}
		case 1:
			x := <-idCh
			if err := probe(cl, x); err != nil {
				return err
			}
			close(ready)
			if err := awaitProbe(cl, x); err != nil {
				return err
			}
			if v, _, err := cl.Retrieve(x); err != nil || v.Type != TypeInteger {
				return fmt.Errorf("the probe's row: %+v %v", v, err)
			}
		}
		return drainShutdown(cl)
	})
}

// TestBatchRefusalMidBatch: when the k-th write of a frame is refused,
// the writes before it are applied and those after it are not, and the
// error, returned by the call that sent the frame, reads as the lone
// write's refusal always has.
func TestBatchRefusalMidBatch(t *testing.T) {
	const x, later = int64(heldBase), int64(heldBase + 1)
	for _, tc := range []struct {
		name    string
		refused func(cl *Client) error
		want    string
	}{
		{"store", func(cl *Client) error { return cl.Store(x, IntValue(2)) },
			fmt.Sprintf("adlb: store: store: id %d already set (single-assignment violation)", x)},
		{"put", func(cl *Client) error { return cl.Put(99, 0, AnyRank, nil) },
			"adlb: put: put: invalid work type 99"},
		{"insert", func(cl *Client) error { return cl.Insert(x, "0", later) },
			fmt.Sprintf("adlb: insert: insert: id %d is not a container", x)},
		{"refcount", func(cl *Client) error { return cl.WriteRefcount(x, -1) },
			fmt.Sprintf("adlb: refcount: refcount: id %d is not a container", x)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := runWorld(t, 2, 1, func(cl *Client) error {
				for _, err := range []error{
					cl.Create(x, TypeInteger),
					cl.Store(x, IntValue(1)),
					tc.refused(cl),
					cl.Create(later, TypeInteger),
					cl.Store(later, IntValue(3)),
				} {
					if err != nil {
						return fmt.Errorf("a write failed before its frame was sent: %v", err)
					}
				}
				if err := cl.Flush(); err == nil || err.Error() != tc.want {
					return fmt.Errorf("flush: %v, want %q", err, tc.want)
				}
				if err := cl.Flush(); err != nil {
					return fmt.Errorf("a second flush: %v, want nothing left to send", err)
				}
				if v, found, err := cl.Retrieve(x); err != nil || !found || !equalValue(v, IntValue(1)) {
					return fmt.Errorf("x reads %+v (found %v, err %v), want the applied 1", v, found, err)
				}
				if _, found, err := cl.Retrieve(later); err != nil || found {
					return fmt.Errorf("a write after the refusal was applied (found %v, err %v)", found, err)
				}
				return noMoreWork(cl)
			})
			// Create and Store of x, then the refused write (a Put is no
			// data op), then the two retrieves.
			want := int64(5)
			if tc.name == "put" {
				want = 4
			}
			if snap.DataOps != want {
				t.Fatalf("DataOps = %d, want %d: the writes after the refusal were counted", snap.DataOps, want)
			}
		})
	}
}

// TestBatchCarriesOneFramePerServer: maxBatch writes to one server are
// one request frame and one reply, a write for another server sends
// what is pending first, and a read rides the writes pending for its
// server, answered in their reply. Rank 1
// parks before rank 0 counts, and nothing steals, so every frame drawn
// meanwhile is rank 0's or a reply to it.
func TestBatchCarriesOneFramePerServer(t *testing.T) {
	cfg := testConfig(2)
	cfg.DisableSteal = true
	_, err := runWorldCfg(t, 4, cfg, func(cl *Client) error {
		if cl.Rank() != 0 {
			return drainShutdown(cl)
		}
		for cl.cfg.Stats.GetsParked.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		frames := func(writes func() error) (uint64, error) {
			before := framesSent(cl)
			err := writes()
			return framesSent(cl) - before, err
		}
		n, err := frames(func() error {
			for k := 0; k < maxBatch; k++ {
				if err := cl.Create(int64(heldBase+2*k), TypeInteger); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil || n != 2 {
			return fmt.Errorf("%d creates on server 0: %d frames (err %v), want 2", maxBatch, n, err)
		}
		n, err = frames(func() error {
			if err := cl.Store(heldBase, IntValue(0)); err != nil {
				return err
			}
			return cl.Create(heldBase+1, TypeInteger) // server 1: server 0's frame goes first
		})
		if err != nil || n != 2 {
			return fmt.Errorf("a write for the other server: %d frames (err %v), want 2", n, err)
		}
		n, err = frames(func() error {
			_, _, err := cl.Lookup(heldBase+1, "0") // rides the pending Create
			return err
		})
		if err == nil || n != 2 {
			return fmt.Errorf("a lookup after a write: %d frames (err %v), want 2 and the lookup refused", n, err)
		}
		return noMoreWork(cl)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadRidesPendingWrites: a read, or a Unique, joins the entries
// pending for its server and goes out with them: after writes to the
// same server, each costs one request frame and one reply, and the
// answer sees the writes applied, or the read returns their refusal.
func TestReadRidesPendingWrites(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		frames := func(what string, calls func() error) error {
			before := framesSent(cl)
			if err := calls(); err != nil {
				return fmt.Errorf("%s: %v", what, err)
			}
			if n := framesSent(cl) - before; n != 2 {
				return fmt.Errorf("%s: %d frames, want one request and its reply", what, n)
			}
			return nil
		}
		c, id := int64(heldBase), int64(0)
		err := frames("unique after a write", func() error {
			if err := cl.Create(c, TypeContainer); err != nil {
				return err
			}
			var err error
			id, err = cl.Unique()
			return err
		})
		if err != nil {
			return err
		}
		err = frames("lookup after an insert", func() error {
			if err := cl.Insert(c, "k", id); err != nil {
				return err
			}
			if m, ok, err := cl.Lookup(c, "k"); err != nil || !ok || m != id {
				return fmt.Errorf("found %d (%v, err %v)", m, ok, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		err = frames("retrieve after a store", func() error {
			if err := cl.Store(id, IntValue(5)); err != nil {
				return err
			}
			if v, ok, err := cl.Retrieve(id); err != nil || !ok || !equalValue(v, IntValue(5)) {
				return fmt.Errorf("read %+v (%v, err %v)", v, ok, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		// A read behind a refused write goes unanswered: its call returns
		// the refusal, with the text a lone write's refusal has.
		err = frames("lookup after a refused store", func() error {
			if err := cl.Store(id, IntValue(6)); err != nil {
				return err
			}
			_, _, err := cl.Lookup(c, "k")
			if want := fmt.Sprintf("adlb: store: store: id %d already set (single-assignment violation)", id); err == nil || err.Error() != want {
				return fmt.Errorf("lookup: %v, want %q", err, want)
			}
			return nil
		})
		if err != nil {
			return err
		}
		return noMoreWork(cl)
	})
}

func equalValue(a, b Value) bool {
	return a.Type == b.Type && string(a.Bytes) == string(b.Bytes)
}

// TestBatchFrameStaysUnderItsByteBound: a write whose value would take
// the pending frame past maxBatchBytes goes in a frame of its own, so
// writes that each fit a transport frame alone never share one that
// does not. Five stores of two fifths of the bound ride two to a frame,
// and a store past the bound goes alone, at once, after the small
// write pending before it.
func TestBatchFrameStaysUnderItsByteBound(t *testing.T) {
	if maxBatchBytes > mpi.MaxFrameBody/16 {
		t.Fatalf("maxBatchBytes %d is not far under the transport's %d-byte frame limit", maxBatchBytes, mpi.MaxFrameBody)
	}
	runWorld(t, 2, 1, func(cl *Client) error {
		for k := int64(0); k < 6; k++ {
			if err := cl.Create(heldBase+k, TypeString); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		part := StringValue(strings.Repeat("x", maxBatchBytes*2/5))
		before := framesSent(cl)
		for k := int64(0); k < 5; k++ {
			if err := cl.Store(heldBase+k, part); err != nil {
				return err
			}
			if h := &cl.home; h.writes > 1 && h.e.size() > maxBatchBytes {
				return fmt.Errorf("store %d: %d writes in a %d-byte frame", k, h.writes, h.e.size())
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		if n := framesSent(cl) - before; n != 6 {
			return fmt.Errorf("5 stores of two fifths of the bound: %d frames, want 3 requests and 3 replies", n)
		}

		before = framesSent(cl)
		if err := cl.Create(heldBase+6, TypeInteger); err != nil {
			return err
		}
		big := StringValue(strings.Repeat("y", maxBatchBytes+1))
		if err := cl.Store(heldBase+5, big); err != nil {
			return err
		}
		if n := framesSent(cl) - before; n != 4 || cl.home.writes != 0 {
			return fmt.Errorf("a small write, then a store past the bound: %d frames and %d writes pending, want 4 and 0", n, cl.home.writes)
		}
		for k, want := range map[int64]Value{heldBase + 4: part, heldBase + 5: big} {
			v, _, err := cl.Retrieve(k)
			if err != nil || !equalValue(v, want) {
				return fmt.Errorf("id %d reads %d bytes (err %v), want %d", k, len(v.Bytes), err, len(want.Bytes))
			}
		}
		return noMoreWork(cl)
	})
}
