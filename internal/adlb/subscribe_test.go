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
