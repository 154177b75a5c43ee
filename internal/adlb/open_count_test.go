package adlb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// runServers runs a world of the given size and servers, as runWorld
// does, and returns its servers once the run is over, for a test to look
// into their data stores, with the run's error.
func runServers(t *testing.T, size, servers int, clientFn func(cl *Client) error) ([]*server, error) {
	t.Helper()
	cfg := testConfig(servers)
	w, err := mpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(size, servers)
	srvs := make([]*server, servers)
	err = w.Run(func(c *mpi.Comm) error {
		if l.IsServer(c.Rank()) {
			s := newServer(c, cfg, l)
			srvs[l.ServerIndex(c.Rank())] = s
			return s.run()
		}
		cl, err := NewClient(c, cfg)
		if err != nil {
			return err
		}
		return clientFn(cl)
	})
	return srvs, err
}

// unfilledScan counts s's data that are not closed, by a full scan.
func unfilledScan(s *server) int {
	n := 0
	s.store.each(func(_ int64, dm *datum) {
		if !dm.closed() {
			n++
		}
	})
	return n
}

// TestOpenCountMatchesScanAtDrain: a server counts its open data as they
// open and close, and the count it reports at drain is what a scan of
// its store finds, on two servers, after a mixed program: scalars
// created and stored, created and never stored, stored at first use,
// waited on and then stored, and waited on and never stored; containers
// closed by one drop, by several, filled by a StoreChunk, left open, and
// refused a reopen; a refcount dropped below zero; and a leased task
// whose writes a Fail dropped and whose re-run made them.
func TestOpenCountMatchesScanAtDrain(t *testing.T) {
	var never int64
	srvs, err := runServers(t, 4, 2, func(cl *Client) error {
		if cl.Rank() == 1 {
			return runFailingTask(cl)
		}
		for owner := 0; owner < 2; owner++ {
			stored, err := heldDatum(cl, 0, owner, true)
			if err != nil {
				return err
			}
			if _, err := heldDatum(cl, 1, owner, false); err != nil {
				return err
			}
			var c [5]int64
			for k := range c {
				c[k] = int64(heldBase + 2*(2+k) + owner)
				if err := cl.Create(c[k], TypeContainer); err != nil {
					return err
				}
			}
			if err := cl.WriteRefcount(c[0], -1); err != nil {
				return err
			}
			if err := cl.WriteRefcount(c[1], 2); err != nil {
				return err
			}
			for range 3 {
				if err := cl.WriteRefcount(c[1], -1); err != nil {
					return err
				}
			}
			if err := cl.StoreChunk(c[2], intChunk(1, 2, 3)); err != nil {
				return err
			}
			if err := cl.Insert(c[2], "member", stored); err != nil {
				return err
			}
			if err := sent(cl, cl.WriteRefcount(c[2], -1)); err != nil {
				return err
			}
			// c[3] stays open. c[4] closes, is refused a reopen, and a
			// drop below zero leaves it closed.
			if err := sent(cl, cl.WriteRefcount(c[4], -1)); err != nil {
				return err
			}
			if err := sent(cl, cl.WriteRefcount(c[4], 1)); err == nil {
				return fmt.Errorf("container %d reopened", c[4])
			}
			if err := sent(cl, cl.WriteRefcount(c[4], -1)); err == nil {
				return fmt.Errorf("container %d dropped below zero", c[4])
			}
		}
		var ids [3]int64
		for i := range ids {
			id, err := cl.Unique()
			if err != nil {
				return err
			}
			ids[i] = id
		}
		if err := cl.Store(ids[0], IntValue(7)); err != nil {
			return err
		}
		if err := probe(cl, ids[1]); err != nil {
			return err
		}
		if err := sent(cl, cl.Store(ids[1], StringValue("late"))); err != nil {
			return err
		}
		if err := awaitProbe(cl, ids[1]); err != nil {
			return err
		}
		never = ids[2]
		if err := probe(cl, never); err != nil {
			return err
		}
		// The failing task, for rank 1, writes to a container each owner
		// holds; its re-run closes them.
		if err := sent(cl, cl.Put(typeWork, 0, 1, []byte("task"))); err != nil {
			return err
		}
		return drainShutdown(cl)
	})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("stalled rules: [\"probe %d\"]", never)) {
		t.Fatalf("err = %v, want the stall report naming the probe on %d", err, never)
	}
	// Open at drain, per server: the created scalar never stored, c[3]
	// and the failing task's container; and on the id minter's server
	// the id waited on and never stored.
	for i, s := range srvs {
		want := 3
		if i == 0 {
			want++
		}
		if scan := unfilledScan(s); s.open != scan || scan != want {
			t.Errorf("server %d: %d open counted, %d by a scan, want %d", i, s.open, scan, want)
		}
	}
}

// runFailingTask is rank 1's part: it creates a container on each owner,
// takes the one task, raises and drops their refcounts, and fails it, so
// the writes pending are dropped; the re-run's writes leave each one
// open, as the first run's would have.
func runFailingTask(cl *Client) error {
	var c [2]int64
	for owner := range c {
		c[owner] = int64(heldBase + 2*9 + owner)
		if err := sent(cl, cl.Create(c[owner], TypeContainer)); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		p, lease, ok, err := cl.GetLeased(typeWork)
		if err != nil || !ok {
			return err
		}
		if string(p) != "task" {
			return fmt.Errorf("got %q", p)
		}
		for _, id := range c {
			if err := cl.WriteRefcount(id, 1); err != nil {
				return err
			}
		}
		if attempt == 0 {
			if err := cl.Fail(lease, "injected", true); err != nil {
				return err
			}
			continue
		}
		for _, id := range c {
			if err := cl.WriteRefcount(id, -1); err != nil {
				return err
			}
		}
	}
}
