package adlb

// Work rules held at the data servers: a Put with wait ids is queued
// only once every id has closed, wherever the ids live, and the server
// that delivers it sends the rows of the inputs it owns with the item.

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

// heldBase is far above anything Unique hands out, so hand-minted ids
// put each datum on the server the test picks (id mod servers).
const heldBase = 3_000_000

// heldDatum creates integer datum k on server index owner, stored with
// the value k (closed) or left open.
func heldDatum(cl *Client, k, owner int, closed bool) (int64, error) {
	id := int64(heldBase + cl.l.Servers*k + owner)
	if err := cl.Create(id, TypeInteger); err != nil {
		return 0, err
	}
	if closed {
		return id, cl.Store(id, IntValue(int64(k)))
	}
	return id, nil
}

// heldWorlds runs drive on rank 0 of a world with one client per server
// (client i is served by server i), on 1, 2 and 3 servers; every other
// client runs rest, or parks until shutdown when rest is nil.
func heldWorlds(t *testing.T, drive, rest func(cl *Client) error) {
	for servers := 1; servers <= 3; servers++ {
		t.Run(fmt.Sprintf("servers=%d", servers), func(t *testing.T) {
			runWorld(t, 2*servers, servers, func(cl *Client) error {
				switch {
				case cl.Rank() == 0:
					return drive(cl)
				case rest != nil:
					return rest(cl)
				}
				return drainShutdown(cl)
			})
		})
	}
}

// takeRule receives the one work item the test put and checks its payload.
func takeRule(cl *Client, want string) error {
	p, _, ok, err := cl.GetLeased(typeWork)
	if err != nil {
		return err
	}
	if !ok || string(p) != want {
		return fmt.Errorf("got %q (ok %v), want the rule %q", p, ok, want)
	}
	return nil
}

// noMoreWork checks that nothing else is ever delivered: the next Get
// ends with the run.
func noMoreWork(cl *Client) error {
	if p, _, ok, err := cl.GetLeased(typeWork); err != nil || ok {
		return fmt.Errorf("a second delivery: %q, %v", p, err)
	}
	return nil
}

// readInputs checks that ids read back as values, costing one chunk
// load per owner other than the delivering server, whose rows came with
// the item.
func readInputs(cl *Client, ids []int64, want []int64, loads int64) error {
	st := cl.cfg.Stats
	before := st.OpChunkLoad.Load()
	c, err := cl.RetrieveChunk(ids)
	if err != nil {
		return err
	}
	if got := st.OpChunkLoad.Load() - before; got != loads {
		return fmt.Errorf("reading %d inputs cost %d chunk loads, want %d", len(ids), got, loads)
	}
	r := c.Reader()
	for i := range ids {
		if !r.Next() || r.Int() != want[i] {
			return fmt.Errorf("input %d (id %d) does not read back as %d", i, ids[i], want[i])
		}
	}
	return nil
}

// probe puts a rule on id targeted at the calling rank, the way a rank
// waits on data: awaitProbe then receives it once id has closed.
func probe(cl *Client, id int64) error {
	return sent(cl, cl.Put(typeControl, 0, cl.Rank(), probePayload(id), id))
}

func probePayload(id int64) []byte { return fmt.Appendf(nil, "probe %d", id) }

// probeClosed probes id and reports whether the probe was released at
// once. On one server that is whether id is closed: the server queues a
// probe on a closed id before answering the Put, and holds one on an
// open id.
func probeClosed(cl *Client, id int64) (bool, error) {
	before := cl.cfg.Stats.PutsLocal.Load()
	if err := probe(cl, id); err != nil {
		return false, err
	}
	return cl.cfg.Stats.PutsLocal.Load() > before, nil
}

// awaitProbe receives the probe on id, which comes once id has closed.
func awaitProbe(cl *Client, id int64) error {
	p, ok, err := cl.Get(typeControl)
	if err != nil || !ok {
		return fmt.Errorf("no probe for %d: ok=%v err=%v", id, ok, err)
	}
	if want := probePayload(id); string(p) != string(want) {
		return fmt.Errorf("got %q, want %q", p, want)
	}
	return nil
}

// TestWaitAndStoreCreateIssuedIDsAtFirstUse pins first-use creation: an
// id its owner issued through Unique, but nobody created, comes into
// being at its first Store (typed by the value) or at the first rule
// waiting on it (an open placeholder the first Store types). Either
// order releases a probe on it exactly once, reads before the store
// fail, and an id the owner never issued still fails both. An id waited
// on and never stored is one unfilled TD, and its rule stalls the run.
// The two-server case has rank 2 mint the ids, so their owner is not the
// home server of rank 0, which uses them.
func TestWaitAndStoreCreateIssuedIDsAtFirstUse(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		size, servers, minter int
	}{
		{"one server", 3, 1, 0},
		{"owner is not home", 6, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var never int64
			snap, err := runWorldCfg(t, tc.size, testConfig(tc.servers), func(cl *Client) error {
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
				storeFirst, waitFirst := ids[0], ids[1]
				never = ids[2]
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
				if err := sent(cl, cl.Store(storeFirst, IntValue(8))); err == nil {
					return fmt.Errorf("second store to first-use id %d succeeded", storeFirst)
				}
				if err := probe(cl, storeFirst); err != nil {
					return err
				}
				if err := awaitProbe(cl, storeFirst); err != nil {
					return err
				}
				if err := probe(cl, waitFirst); err != nil {
					return err
				}
				if err := readFails(waitFirst, "waited on"); err != nil {
					return err
				}
				if err := cl.Store(waitFirst, FloatValue(2.5)); err != nil {
					return err
				}
				if err := awaitProbe(cl, waitFirst); err != nil {
					return err
				}
				if v, _, err := cl.Retrieve(waitFirst); err != nil || v.Type != TypeFloat {
					return fmt.Errorf("retrieve after the store: %v %v", v, err)
				}
				if v, _, err := cl.Retrieve(storeFirst); err != nil || v.Type != TypeInteger {
					return fmt.Errorf("retrieve of %d: %v %v", storeFirst, v, err)
				}
				// Beyond anything its owner issued: the same owner, but no
				// first use can make it exist.
				bogus := never + 2*idBlock*int64(tc.servers)
				if err := sent(cl, cl.Store(bogus, IntValue(1))); err == nil || !strings.Contains(err.Error(), "no such id") {
					return fmt.Errorf("store to unissued id %d: err = %v", bogus, err)
				}
				if err := probe(cl, bogus); err == nil || !strings.Contains(err.Error(), "no such id") {
					return fmt.Errorf("wait on unissued id %d: err = %v", bogus, err)
				}
				if err := probe(cl, never); err != nil {
					return err
				}
				if p, ok, err := cl.Get(typeControl); err != nil || ok {
					return fmt.Errorf("a further delivery: %q, %v", p, err)
				}
				return nil
			})
			want := fmt.Sprintf("stalled on 1 unfilled TD(s) [%d]; stalled rules: [\"probe %d\"]", never, never)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want it to contain %q", err, want)
			}
			// never was waited on and never stored: one open entry.
			if snap.UnfilledTDs != 1 {
				t.Fatalf("UnfilledTDs = %d, want 1", snap.UnfilledTDs)
			}
		})
	}
}

func TestHeldRuleAllClosedEnqueuesAtOnce(t *testing.T) {
	heldWorlds(t, func(cl *Client) error {
		servers := cl.l.Servers
		var ids, want []int64
		for k := 0; k < 2*servers; k++ {
			id, err := heldDatum(cl, k, k%servers, true)
			if err != nil {
				return err
			}
			ids, want = append(ids, id), append(want, int64(k))
		}
		if err := cl.Put(typeWork, 0, AnyRank, []byte("closed"), ids...); err != nil {
			return err
		}
		if err := takeRule(cl, "closed"); err != nil {
			return err
		}
		st := cl.cfg.Stats
		if st.PutsLocal.Load() != 1 || st.PutsForwarded.Load() != int64(servers-1) {
			return fmt.Errorf("puts local %d, forwarded %d; want 1 and %d",
				st.PutsLocal.Load(), st.PutsForwarded.Load(), servers-1)
		}
		// Server 0 delivers (rank 0 gets from it, stealing if need be), so
		// its ids ride the item and each other owner costs one load.
		if err := readInputs(cl, ids, want, int64(servers-1)); err != nil {
			return err
		}
		return noMoreWork(cl)
	}, nil)
}

func TestHeldRuleForwardsOncePerFurtherOwner(t *testing.T) {
	heldWorlds(t, func(cl *Client) error {
		servers := cl.l.Servers
		st := cl.cfg.Stats
		// Two open ids on every server, owners interleaved.
		var ids, want []int64
		for k := 0; k < 2*servers; k++ {
			id, err := heldDatum(cl, k, k%servers, false)
			if err != nil {
				return err
			}
			ids, want = append(ids, id), append(want, int64(k))
		}
		if err := cl.Put(typeWork, 0, AnyRank, []byte("open"), ids...); err != nil {
			return err
		}
		check := func(when string, local, forwarded int64) error {
			if st.PutsLocal.Load() != local || st.PutsForwarded.Load() != forwarded {
				return fmt.Errorf("%s: puts local %d, forwarded %d; want %d and %d",
					when, st.PutsLocal.Load(), st.PutsForwarded.Load(), local, forwarded)
			}
			return nil
		}
		if err := check("held on server 0", 0, 0); err != nil {
			return err
		}
		// Closing server 0's ids sends the rule on to server 1, where it
		// waits again.
		for k := 0; k < len(ids); k += servers {
			if err := cl.Store(ids[k], IntValue(int64(k))); err != nil {
				return err
			}
		}
		if servers > 1 {
			// Server 0 forwards after answering the store; any later
			// request to it is handled after the forward.
			if _, _, err := cl.Retrieve(ids[0]); err != nil {
				return err
			}
			if err := check("server 0's ids closed", 0, 1); err != nil {
				return err
			}
		}
		for k := range ids {
			if k%servers != 0 {
				if err := cl.Store(ids[k], IntValue(int64(k))); err != nil {
					return err
				}
			}
		}
		if err := takeRule(cl, "open"); err != nil {
			return err
		}
		if err := check("delivered", 1, int64(servers-1)); err != nil {
			return err
		}
		if err := readInputs(cl, ids, want, int64(servers-1)); err != nil {
			return err
		}
		return noMoreWork(cl)
	}, nil)
}

func TestHeldRuleRepeatedIDWaitsOnce(t *testing.T) {
	heldWorlds(t, func(cl *Client) error {
		servers := cl.l.Servers
		a, err := heldDatum(cl, 0, 0, false)
		if err != nil {
			return err
		}
		b, err := heldDatum(cl, 1, servers-1, false)
		if err != nil {
			return err
		}
		wait := []int64{a, b, a, a, b}
		if err := cl.Put(typeWork, 0, AnyRank, []byte("repeated"), wait...); err != nil {
			return err
		}
		if err := cl.Store(a, IntValue(0)); err != nil {
			return err
		}
		if n := cl.cfg.Stats.PutsLocal.Load(); n != 0 {
			return fmt.Errorf("released with b still open (%d puts local)", n)
		}
		if err := cl.Store(b, IntValue(1)); err != nil {
			return err
		}
		if err := takeRule(cl, "repeated"); err != nil {
			return err
		}
		loads := int64(0)
		if servers > 1 {
			loads = 1
		}
		if err := readInputs(cl, wait, []int64{0, 1, 0, 0, 1}, loads); err != nil {
			return err
		}
		// Delivered once; and the run ends clean, so no hold was left
		// behind for a second wait on the same id.
		return noMoreWork(cl)
	}, nil)
}

func TestHeldRuleUnknownIDFailsThePut(t *testing.T) {
	heldWorlds(t, func(cl *Client) error {
		a, err := heldDatum(cl, 0, 0, false)
		if err != nil {
			return err
		}
		// Owned by server 0, like a, and never issued or created.
		garbage := int64(heldBase + cl.l.Servers*999)
		err = sent(cl, cl.Put(typeWork, 0, AnyRank, []byte("bad"), a, garbage))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("no such id %d", garbage)) {
			return fmt.Errorf("put with an unknown id: err = %v, want it named", err)
		}
		// Nothing was held on a: closing it releases nothing.
		if err := sent(cl, cl.Store(a, IntValue(0))); err != nil {
			return err
		}
		if n := cl.cfg.Stats.PutsLocal.Load(); n != 0 {
			return fmt.Errorf("%d puts enqueued after a failed put", n)
		}
		return noMoreWork(cl)
	}, nil)
}

// TestHeldRuleMinInt64IsAnUnknownID: a Put waiting on math.MinInt64
// goes to a server, which refuses it as an id it never issued.
func TestHeldRuleMinInt64IsAnUnknownID(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		err := sent(cl, cl.Put(typeWork, 0, AnyRank, []byte("bad"), math.MinInt64))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("no such id %d", int64(math.MinInt64))) {
			return fmt.Errorf("put waiting on MinInt64: err = %v, want the unknown id named", err)
		}
		return noMoreWork(cl)
	})
}

// An unknown id on a further owner is found only when the rule reaches
// it, after the Put has returned: the run fails, naming the id.
func TestHeldRuleUnknownIDOnFurtherOwnerFailsTheRun(t *testing.T) {
	for servers := 2; servers <= 3; servers++ {
		garbage := int64(heldBase + servers*999 + servers - 1)
		_, err := runWorldCfg(t, 2*servers, testConfig(servers), func(cl *Client) error {
			if cl.Rank() == 0 {
				a, err := heldDatum(cl, 0, 0, true)
				if err != nil {
					return err
				}
				if err := cl.Put(typeWork, 0, AnyRank, []byte("bad"), a, garbage); err != nil {
					return err
				}
			}
			return drainShutdown(cl)
		})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("no such id %d", garbage)) {
			t.Fatalf("servers=%d: err = %v, want the unknown id named", servers, err)
		}
	}
}

func TestHeldRuleWakesOnContainerClose(t *testing.T) {
	heldWorlds(t, func(cl *Client) error {
		c := int64(heldBase + cl.l.Servers - 1)
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		m, err := heldDatum(cl, 1, 0, true)
		if err != nil {
			return err
		}
		if err := cl.Insert(c, "0", m); err != nil {
			return err
		}
		if err := cl.Put(typeWork, 0, AnyRank, []byte("container"), c); err != nil {
			return err
		}
		if n := cl.cfg.Stats.PutsLocal.Load(); n != 0 {
			return fmt.Errorf("released while the container was open (%d puts local)", n)
		}
		if err := cl.WriteRefcount(c, -1); err != nil {
			return err
		}
		if err := takeRule(cl, "container"); err != nil {
			return err
		}
		// A container has no row to carry.
		if len(cl.item.ids) != 0 {
			return fmt.Errorf("item carries rows %v for a container", cl.item.ids)
		}
		return noMoreWork(cl)
	}, nil)
}

func TestHeldRuleTargetLandsOnItsServer(t *testing.T) {
	// The target is the last client, served by the last server; the rule
	// waits on a, datum 0 on server 0.
	const a = int64(heldBase)
	target := func(cl *Client) int { return cl.l.Clients() - 1 }
	serveTarget := func(cl *Client) error {
		if cl.Rank() != target(cl) {
			return drainShutdown(cl)
		}
		if err := takeRule(cl, "targeted"); err != nil {
			return err
		}
		if n, want := cl.cfg.Stats.PutsForwarded.Load(), int64(min(cl.l.Servers-1, 1)); n != want {
			return fmt.Errorf("%d forwards, want %d", n, want)
		}
		// The target's server delivered it: a's row rides along only when
		// that server owns a.
		loads := int64(1)
		if cl.l.OwnerOf(a) == cl.l.ServerOf(cl.Rank()) {
			loads = 0
		}
		if err := readInputs(cl, []int64{a}, []int64{0}, loads); err != nil {
			return err
		}
		return noMoreWork(cl)
	}
	heldWorlds(t, func(cl *Client) error {
		if _, err := heldDatum(cl, 0, 0, false); err != nil {
			return err
		}
		if err := cl.Put(typeWork, 0, target(cl), []byte("targeted"), a); err != nil {
			return err
		}
		if err := cl.Store(a, IntValue(0)); err != nil {
			return err
		}
		return serveTarget(cl)
	}, serveTarget)
}

// Safra counts a forwarded rule as a message in flight: a token round
// that completes before the rule reaches its next owner does not end the
// run. Driven by hand on two server structs (ranks 1 and 2; client 0
// idles), since in-process delivery never lets the token overtake it.
func TestHeldSafraWaitsForForwardedRule(t *testing.T) {
	w, err := mpi.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	fail := time.AfterFunc(30*time.Second, func() { w.Abort(fmt.Errorf("test watchdog: world hung")) })
	defer fail.Stop()
	cfg, l := testConfig(2), NewLayout(3, 2)
	id := int64(heldBase + 1) // owned by server index 1
	err = w.Run(func(c *mpi.Comm) error {
		switch c.Rank() {
		case 1: // server index 0, the master
			s := newServer(c, cfg, l)
			s.parked[0] = parkedReq{typ: typeWork}
			s.parkOrder = []int{0}
			r := &workItem{Type: typeWork, Target: AnyRank, Payload: []byte("rule"), Inputs: []int64{id}}
			if err := s.route(r, r.Inputs, 0); err != nil {
				return err
			}
			// The token comes back white with a zero count, as if server 1
			// passed it on before the rule arrived.
			s.haveToken, s.tokenQ, s.tokenBlack = true, 0, false
			s.forwardToken()
			if s.draining {
				return fmt.Errorf("terminated with a forwarded rule in flight")
			}
			// Server 1 has the rule now and sends the token round again.
			data, st, err := c.Recv(2, tagServer)
			if err != nil {
				return err
			}
			if err := s.dispatch(data, st); err != nil {
				return err
			}
			if s.draining {
				return fmt.Errorf("terminated on the round that saw the rule arrive")
			}
		case 2: // server index 1
			s := newServer(c, cfg, l)
			s.store.create(id).typ = TypeInteger
			data, st, err := c.Recv(1, tagServer)
			if err != nil {
				return err
			}
			if err := s.dispatch(data, st); err != nil {
				return err
			}
			if s.held != 1 {
				return fmt.Errorf("server 1 holds %d rules, want the forwarded one", s.held)
			}
			s.haveToken, s.tokenQ, s.tokenBlack = true, 0, false
			s.forwardToken()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeldWatchdogCountsHeldRules(t *testing.T) {
	cfg := testConfig(1)
	cfg.WatchdogIdle = 5 * time.Millisecond
	_, err := runWorldCfg(t, 3, cfg, func(cl *Client) error {
		if cl.Rank() == 0 {
			// Both clients only ever ask for control work: the queued item
			// is stranded, and the rule waits on a datum nobody stores.
			if err := cl.Put(typeWork, 0, AnyRank, []byte("stranded-task")); err != nil {
				return err
			}
			open, err := heldDatum(cl, 0, 0, false)
			if err != nil {
				return err
			}
			if err := cl.Put(typeWork, 0, AnyRank, []byte("held-rule"), open); err != nil {
				return err
			}
		}
		return drainShutdown(cl)
	})
	if err == nil {
		t.Fatal("expected hang-watchdog diagnostic, got clean run")
	}
	for _, want := range []string{"hang detected", "type 1: 1 item(s)", "1 held rule(s)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic %q does not mention %q", err, want)
		}
	}
}
