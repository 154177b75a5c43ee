package adlb

import (
	"fmt"
	"strings"
	"testing"
)

// Batched subscribe on a 2-server world (clients 0,1 -> server index 0;
// 2,3 -> index 1). Rank 0 drives; ids are minted by hand so their owner
// (id mod 2) is the test's choice, far above anything Unique hands out.

const subTestBase = 1_000_000

// subTestDatum creates integer datum k on server index owner, stored
// (closed) or left open.
func subTestDatum(cl *Client, k, owner int, closed bool) (int64, error) {
	id := int64(subTestBase + 2*k + owner)
	if err := cl.Create(id, TypeInteger); err != nil {
		return 0, err
	}
	if closed {
		if err := cl.Store(id, IntValue(int64(k))); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// notifications parks in Get until shutdown and counts the close
// notifications delivered per id.
func notifications(cl *Client) (map[int64]int, error) {
	got := map[int64]int{}
	for {
		p, ok, err := cl.Get(typeControl)
		if err != nil || !ok {
			return got, err
		}
		id, isNote := DecodeNotification(p)
		if !isNote {
			return got, fmt.Errorf("unexpected work item %q", p)
		}
		got[id]++
	}
}

func TestSubscribeBatchAcrossServers(t *testing.T) {
	runWorld(t, 6, 2, func(cl *Client) error {
		if cl.Rank() != 0 {
			return drainShutdown(cl)
		}
		// Interleaved owners and states, so the per-server grouping has
		// to put every flag back at its id's own index.
		specs := []struct {
			owner  int
			closed bool
		}{{0, false}, {1, true}, {0, true}, {1, false}, {0, false}, {0, true}, {1, false}}
		ids := make([]int64, len(specs))
		for k, sp := range specs {
			var err error
			if ids[k], err = subTestDatum(cl, k, sp.owner, sp.closed); err != nil {
				return err
			}
		}
		before := cl.cfg.Stats.DataOps.Load()
		closed, err := cl.Subscribe(cl.Rank(), ids)
		if err != nil {
			return err
		}
		if rpcs := cl.cfg.Stats.DataOps.Load() - before; rpcs != 2 {
			return fmt.Errorf("subscribe of %d ids on 2 servers cost %d RPCs, want 2", len(ids), rpcs)
		}
		for k, sp := range specs {
			if closed[k] != sp.closed {
				return fmt.Errorf("closed = %v, want flag %d = %v", closed, k, sp.closed)
			}
		}
		// One server, one id: still one RPC.
		before = cl.cfg.Stats.DataOps.Load()
		if closed, err = cl.Subscribe(cl.Rank(), ids[1:2]); err != nil || !closed[0] {
			return fmt.Errorf("single closed id: %v %v", closed, err)
		}
		if rpcs := cl.cfg.Stats.DataOps.Load() - before; rpcs != 1 {
			return fmt.Errorf("subscribe of 1 id cost %d RPCs", rpcs)
		}
		if closed, err = cl.Subscribe(cl.Rank(), nil); err != nil || len(closed) != 0 {
			return fmt.Errorf("empty subscribe: %v %v", closed, err)
		}
		// Close the open ones: each notifies exactly once, the ones that
		// answered closed never do.
		for k, sp := range specs {
			if !sp.closed {
				if err := cl.Store(ids[k], IntValue(1)); err != nil {
					return err
				}
			}
		}
		got, err := notifications(cl)
		if err != nil {
			return err
		}
		for k, sp := range specs {
			want := 1
			if sp.closed {
				want = 0
			}
			if got[ids[k]] != want {
				return fmt.Errorf("id %d (spec %d) notified %d times, want %d; all: %v", ids[k], k, got[ids[k]], want, got)
			}
		}
		return nil
	})
}

func TestSubscribeBatchUnknownIDFailsItsServerWhole(t *testing.T) {
	runWorld(t, 6, 2, func(cl *Client) error {
		if cl.Rank() != 0 {
			return drainShutdown(cl)
		}
		a0, err := subTestDatum(cl, 0, 0, false)
		if err != nil {
			return err
		}
		b0, err := subTestDatum(cl, 1, 0, false)
		if err != nil {
			return err
		}
		c1, err := subTestDatum(cl, 2, 1, false)
		if err != nil {
			return err
		}
		d1, err := subTestDatum(cl, 3, 1, false)
		if err != nil {
			return err
		}
		unknown := int64(subTestBase + 2*99 + 1) // server index 1, never created
		// Server 0's group (a0, b0) is whole and registers; server 1's
		// (c1, unknown, d1) fails, and must leave neither c1 — checked
		// before the bad id — nor d1 subscribed.
		_, err = cl.Subscribe(cl.Rank(), []int64{c1, a0, unknown, b0, d1})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("no such id %d", unknown)) {
			return fmt.Errorf("subscribe with unknown id: err = %v", err)
		}
		for _, id := range []int64{a0, b0, c1, d1} {
			if err := cl.Store(id, IntValue(1)); err != nil {
				return err
			}
		}
		got, err := notifications(cl)
		if err != nil {
			return err
		}
		if got[a0] != 1 || got[b0] != 1 || got[c1] != 0 || got[d1] != 0 || len(got) != 2 {
			return fmt.Errorf("notifications %v; want one each for %d and %d only", got, a0, b0)
		}
		return nil
	})
}

// TestSubscribeAndStoreCreateIssuedIDsAtFirstUse pins first-use creation:
// an id its owner issued through Unique, but nobody created, comes into
// being at its first Store (typed by the value) or its first Subscribe
// (an open placeholder the first Store types). Either order tells the
// subscriber of the close exactly once — by the subscribe's closed flag
// or by one notification — reads before the store fail, and an id the
// owner never issued still fails. The two-server case has rank 2 mint
// the ids, so their owner is not the home server of rank 0, which uses
// them.
func TestSubscribeAndStoreCreateIssuedIDsAtFirstUse(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		size, servers, minter int
	}{
		{"one server", 3, 1, 0},
		{"owner is not home", 6, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := runWorld(t, tc.size, tc.servers, func(cl *Client) error {
				if cl.Rank() != 0 && cl.Rank() != tc.minter {
					return drainShutdown(cl)
				}
				var ids [3]int64
				for i := range ids {
					id, err := cl.Unique()
					if err != nil {
						return err
					}
					ids[i] = id
				}
				if cl.Rank() != 0 {
					msg := fmt.Sprint(ids[0], ids[1], ids[2])
					if err := cl.Put(typeWork, 0, 0, []byte(msg)); err != nil {
						return err
					}
					return drainShutdown(cl)
				}
				if tc.minter != 0 {
					p, ok, err := cl.Get(typeWork)
					if err != nil || !ok {
						return fmt.Errorf("ids from rank %d: ok=%v err=%v", tc.minter, ok, err)
					}
					if _, err := fmt.Sscan(string(p), &ids[0], &ids[1], &ids[2]); err != nil {
						return err
					}
					if owner := cl.l.OwnerOf(ids[0]); owner == cl.myServer {
						return fmt.Errorf("id %d is owned by rank 0's home server %d", ids[0], owner)
					}
				}
				storeFirst, subFirst, never := ids[0], ids[1], ids[2]
				readFails := func(id int64, when string) error {
					if _, found, err := cl.Retrieve(id); err == nil && found {
						return fmt.Errorf("%s: retrieve of %d succeeded", when, id)
					}
					if _, err := cl.RetrieveChunk([]int64{id}); err == nil {
						return fmt.Errorf("%s: retrieve_chunk of %d succeeded", when, id)
					}
					return nil
				}
				for _, id := range ids {
					if err := readFails(id, "unseen"); err != nil {
						return err
					}
				}
				if err := cl.Store(storeFirst, IntValue(7)); err != nil {
					return err
				}
				if err := cl.Store(storeFirst, IntValue(8)); err == nil {
					return fmt.Errorf("second store to first-use id %d succeeded", storeFirst)
				}
				closed, err := cl.Subscribe(cl.Rank(), ids[:])
				if err != nil {
					return err
				}
				if !closed[0] || closed[1] || closed[2] {
					return fmt.Errorf("closed = %v, want [true false false]", closed)
				}
				if err := readFails(subFirst, "subscribed"); err != nil {
					return err
				}
				if err := cl.Store(subFirst, FloatValue(2.5)); err != nil {
					return err
				}
				if v, _, err := cl.Retrieve(subFirst); err != nil || v.Type != TypeFloat {
					return fmt.Errorf("retrieve after the store: %v %v", v, err)
				}
				if v, _, err := cl.Retrieve(storeFirst); err != nil || v.Type != TypeInteger {
					return fmt.Errorf("retrieve of %d: %v %v", storeFirst, v, err)
				}
				// Beyond anything its owner issued: the same owner, but no
				// first use can make it exist.
				bogus := never + 1000*int64(tc.servers)
				if err := cl.Store(bogus, IntValue(1)); err == nil || !strings.Contains(err.Error(), "no such id") {
					return fmt.Errorf("store to unissued id %d: err = %v", bogus, err)
				}
				if _, err := cl.Subscribe(cl.Rank(), []int64{bogus}); err == nil || !strings.Contains(err.Error(), "no such id") {
					return fmt.Errorf("subscribe to unissued id %d: err = %v", bogus, err)
				}
				got, err := notifications(cl)
				if err != nil {
					return err
				}
				if got[subFirst] != 1 || len(got) != 1 {
					return fmt.Errorf("notifications %v; want one for %d only", got, subFirst)
				}
				return nil
			})
			// never was subscribed to and never stored: one open entry.
			if snap.UnfilledTDs != 1 {
				t.Fatalf("UnfilledTDs = %d, want 1", snap.UnfilledTDs)
			}
		})
	}
}
