package adlb

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chunk"
	"repro/internal/mpi"
)

const (
	typeControl = 0
	typeWork    = 1
)

func testConfig(servers int) Config {
	return Config{Servers: servers, Types: 2, Stats: &Stats{}}
}

// sent is a write's outcome once it is on the wire: the write's own
// error, or the refusal the flush of its frame brings back.
func sent(cl *Client, err error) error {
	if err != nil {
		return err
	}
	return cl.Flush()
}

// runWorld runs a world with the given total size and server count.
// clientFn is invoked on client ranks.
func runWorld(t *testing.T, size, servers int, clientFn func(cl *Client) error) StatsSnapshot {
	t.Helper()
	cfg := testConfig(servers)
	w, err := mpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	fail := time.AfterFunc(30*time.Second, func() {
		w.Abort(fmt.Errorf("test watchdog: world hung"))
	})
	defer fail.Stop()
	err = w.Run(func(c *mpi.Comm) error {
		l := NewLayout(size, servers)
		if l.IsServer(c.Rank()) {
			return Serve(c, cfg)
		}
		cl, err := NewClient(c, cfg)
		if err != nil {
			return err
		}
		return clientFn(cl)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Stats.Snapshot()
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Servers: 0, Types: 1},
		{Servers: 4, Types: 1},
		{Servers: 1, Types: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(4); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	good := Config{Servers: 1, Types: 2}
	if err := good.Validate(4); err != nil {
		t.Errorf("unexpected: %v", err)
	}
}

func TestLayout(t *testing.T) {
	l := NewLayout(10, 2) // 8 clients, servers are ranks 8, 9
	if l.Clients() != 8 {
		t.Fatalf("clients = %d", l.Clients())
	}
	if !l.IsServer(8) || !l.IsServer(9) || l.IsServer(7) {
		t.Fatal("server predicate wrong")
	}
	if l.ServerRank(0) != 8 || l.ServerRank(1) != 9 {
		t.Fatal("server rank mapping wrong")
	}
	// Every client maps to a valid server; blocks are contiguous.
	prev := l.ServerOf(0)
	for c := 1; c < l.Clients(); c++ {
		s := l.ServerOf(c)
		if !l.IsServer(s) {
			t.Fatalf("client %d maps to non-server %d", c, s)
		}
		if s < prev {
			t.Fatalf("server assignment not monotone at client %d", c)
		}
		prev = s
	}
	// Ownership: id stride matches allocating server.
	for i := 0; i < 2; i++ {
		id := int64(2 + i) // ids ≡ i (mod 2)
		if l.OwnerOf(id) != l.ServerRank(i) {
			t.Fatalf("owner of %d = %d", id, l.OwnerOf(id))
		}
	}
}

// TestOwnerOfIsAlwaysAServer: every id, math.MinInt64 included (whose
// negation overflows), is owned by a server rank, never a client.
func TestOwnerOfIsAlwaysAServer(t *testing.T) {
	l := NewLayout(10, 3)
	ids := []int64{math.MinInt64, math.MinInt64 + 1, -3, -1, 0, 1, 2, math.MaxInt64}
	f := func(id int64) bool { return l.IsServer(l.OwnerOf(id)) }
	for _, id := range ids {
		if !f(id) {
			t.Fatalf("OwnerOf(%d) = %d, a client rank", id, l.OwnerOf(id))
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutBalanceProperty(t *testing.T) {
	f := func(sizeRaw, serversRaw uint8) bool {
		size := int(sizeRaw%60) + 2
		servers := int(serversRaw%uint8(size-1)) + 1
		l := NewLayout(size, servers)
		counts := make([]int, servers)
		for c := 0; c < l.Clients(); c++ {
			counts[l.ServerIndex(l.ServerOf(c))]++
		}
		// Balanced: max-min <= 1, and all clients assigned.
		minC, maxC, sum := counts[0], counts[0], 0
		for _, n := range counts {
			if n < minC {
				minC = n
			}
			if n > maxC {
				maxC = n
			}
			sum += n
		}
		return sum == l.Clients() && maxC-minC <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetSingleServer(t *testing.T) {
	// 1 client + 1 server: client puts N items then gets them all back.
	runWorld(t, 2, 1, func(cl *Client) error {
		const n = 20
		for i := 0; i < n; i++ {
			if err := cl.Put(typeWork, 0, AnyRank, []byte{byte(i)}); err != nil {
				return err
			}
		}
		seen := 0
		for seen < n {
			p, ok, err := cl.Get(typeWork)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("premature shutdown after %d items", seen)
			}
			seen++
			_ = p
		}
		// Next get should eventually return shutdown (queue empty, all parked).
		_, ok, err := cl.Get(typeWork)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("expected no-more-work")
		}
		return nil
	})
}

func TestPriorityOrder(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		// Enqueue with mixed priorities while nothing is parked.
		for i, pr := range []int{1, 5, 3, 5, 2} {
			if err := cl.Put(typeWork, pr, AnyRank, []byte{byte(i)}); err != nil {
				return err
			}
		}
		// Expect priority desc, FIFO within equal priority: 1,3,2,4,0
		want := []byte{1, 3, 2, 4, 0}
		for _, wb := range want {
			p, ok, err := cl.Get(typeWork)
			if err != nil || !ok {
				return fmt.Errorf("get: ok=%v err=%v", ok, err)
			}
			if p[0] != wb {
				return fmt.Errorf("priority order: got %d want %d", p[0], wb)
			}
		}
		_, ok, err := cl.Get(typeWork)
		if ok || err != nil {
			return fmt.Errorf("shutdown: ok=%v err=%v", ok, err)
		}
		return nil
	})
}

func TestPriorityAwareParkedMatching(t *testing.T) {
	// Regression for FIFO-of-arrival delivery to parked clients: when a
	// batch of items (a steal response) lands while a client is parked,
	// the client must receive the highest-priority queued item, not the
	// first-arrived one. Exercised white-box: rank 1 hosts a server
	// struct whose queue is filled low-priority-first with a client
	// already parked; rank 0 plays the parked client and asserts on the
	// delivered item.
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	fail := time.AfterFunc(30*time.Second, func() {
		w.Abort(fmt.Errorf("test watchdog: world hung"))
	})
	defer fail.Stop()
	item := func(prio int, tag byte) *workItem {
		return &workItem{Type: typeWork, Priority: prio, Target: AnyRank, Payload: []byte{tag}}
	}
	err = w.Run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			// The parked client: wait for the single delivery.
			data, st, ok, err := c.RecvTimeout(mpi.AnySource, mpi.AnyTag, 10*time.Second)
			if err != nil || !ok {
				return fmt.Errorf("recv: ok=%v err=%v", ok, err)
			}
			d := &decoder{buf: data}
			if st.Tag != tagResponse || d.u8() != stOK || d.u32() != 1 {
				return fmt.Errorf("unexpected response tag=%d", st.Tag)
			}
			got := d.bytes()
			if d.err != nil {
				return d.err
			}
			if len(got) != 1 || got[0] != 'H' {
				return fmt.Errorf("parked client got %q, want the highest-priority item", got)
			}
			return nil
		}
		s := newServer(c, testConfig(1), NewLayout(2, 1))
		s.parked[0] = parkedReq{typ: typeWork}
		s.parkOrder = []int{0}
		// Batch arrives lowest-priority first — the adversarial arrival
		// order for FIFO-of-arrival matching.
		if s.enqueue(item(1, 'L')) && s.enqueue(item(5, 'H')) && s.enqueue(item(3, 'M')) {
			s.matchParked(typeWork, AnyRank)
		}
		if len(s.parked) != 0 {
			return fmt.Errorf("client still parked after matching")
		}
		if q := s.untargeted[typeWork]; q == nil || q.len() != 2 {
			return fmt.Errorf("expected the two lower-priority items to stay queued")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTargetedPut(t *testing.T) {
	// 3 clients: rank 0 sends targeted work to rank 2; ranks 1 and 2 Get.
	// Only rank 2 may receive it.
	var got2 atomic.Int64
	runWorld(t, 4, 1, func(cl *Client) error {
		switch cl.Rank() {
		case 0:
			for i := 0; i < 5; i++ {
				if err := cl.Put(typeWork, 0, 2, []byte("targeted")); err != nil {
					return err
				}
			}
		case 2:
			for {
				p, ok, err := cl.Get(typeWork)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				if string(p) != "targeted" {
					return fmt.Errorf("unexpected payload %q", p)
				}
				got2.Add(1)
			}
		}
		// All clients drain to shutdown.
		for {
			_, ok, err := cl.Get(typeWork)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return fmt.Errorf("rank %d received work meant for rank 2", cl.Rank())
		}
	})
	if got2.Load() != 5 {
		t.Fatalf("rank 2 got %d targeted items, want 5", got2.Load())
	}
}

func TestWorkDistributionAcrossClients(t *testing.T) {
	// One producer, several consumers; all items must be consumed exactly once.
	const items = 120
	const clients = 6
	var consumed atomic.Int64
	runWorld(t, clients+1, 1, func(cl *Client) error {
		if cl.Rank() == 0 {
			for i := 0; i < items; i++ {
				if err := cl.Put(typeWork, 0, AnyRank, []byte{byte(i)}); err != nil {
					return err
				}
			}
		}
		for {
			_, ok, err := cl.Get(typeWork)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			consumed.Add(1)
		}
	})
	if consumed.Load() != items {
		t.Fatalf("consumed %d, want %d", consumed.Load(), items)
	}
}

func TestUntargetedDispatchFIFOAfterTargetedDelivery(t *testing.T) {
	// Regression: deliver used to remove clients from the parked map but
	// not from the park FIFO, so a client that received a targeted item
	// and re-parked kept its old (earlier) FIFO position and won every
	// untargeted dispatch, starving later-parked clients.
	//
	// Ordering (client 2 is the producer):
	//   t=0    client 0 parks
	//   t=50   targeted put -> client 0 (stale FIFO entry in the old code)
	//   t=100  client 1 parks
	//   t=200  client 0 re-parks (after the stale entry and client 1)
	//   t=300  untargeted put -> must go to client 1 (earlier park)
	//   t=350  untargeted put -> goes to client 0
	step := 50 * time.Millisecond
	var mu sync.Mutex
	got := map[int][]string{}
	record := func(rank int, payload []byte) {
		mu.Lock()
		got[rank] = append(got[rank], string(payload))
		mu.Unlock()
	}
	drain := func(cl *Client) error {
		for {
			p, ok, err := cl.Get(typeWork)
			if err != nil || !ok {
				return err
			}
			record(cl.Rank(), p)
		}
	}
	runWorld(t, 4, 1, func(cl *Client) error {
		switch cl.Rank() {
		case 0:
			p, ok, err := cl.Get(typeWork)
			if err != nil || !ok {
				return err
			}
			record(0, p)
			time.Sleep(4 * step) // re-park only after client 1 has parked
			return drain(cl)
		case 1:
			time.Sleep(2 * step)
			return drain(cl)
		case 2:
			time.Sleep(step)
			if err := sent(cl, cl.Put(typeWork, 0, 0, []byte("targeted"))); err != nil {
				return err
			}
			time.Sleep(5 * step)
			if err := sent(cl, cl.Put(typeWork, 0, AnyRank, []byte("first-untargeted"))); err != nil {
				return err
			}
			time.Sleep(step)
			if err := sent(cl, cl.Put(typeWork, 0, AnyRank, []byte("second-untargeted"))); err != nil {
				return err
			}
			// Park too, so the server can reach quiescence and terminate.
			return drain(cl)
		}
		return nil
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got[0]) == 0 || got[0][0] != "targeted" {
		t.Fatalf("client 0 items = %v, want targeted delivery first", got[0])
	}
	if len(got[1]) != 1 || got[1][0] != "first-untargeted" {
		t.Fatalf("client 1 items = %v, want [first-untargeted]: earliest-parked client must win", got[1])
	}
	if len(got[0]) != 2 || got[0][1] != "second-untargeted" {
		t.Fatalf("client 0 items = %v, want [targeted second-untargeted]", got[0])
	}
}

func TestWorkStealingAcrossServers(t *testing.T) {
	// 2 servers. All work is produced at server 0 before any consumption
	// starts (enforced by a barrier); clients of server 1 can then only
	// be fed by stealing. Slow consumption guarantees the steal window.
	const items = 50
	var consumedRemote atomic.Int64
	produced := make(chan struct{})
	st := runWorld(t, 6, 2, func(cl *Client) error {
		// Layout: clients 0..3; servers ranks 4,5. ServerOf: 0,1 -> 4; 2,3 -> 5.
		if cl.Rank() == 0 {
			for i := 0; i < items; i++ {
				if err := cl.Put(typeWork, 0, AnyRank, []byte("job")); err != nil {
					return err
				}
			}
			close(produced)
		}
		<-produced
		for {
			_, ok, err := cl.Get(typeWork)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			time.Sleep(time.Millisecond)
			if cl.Layout().ServerOf(cl.Rank()) != cl.Layout().ServerOf(0) {
				consumedRemote.Add(1)
			}
		}
	})
	if st.ItemsStolen == 0 {
		t.Fatalf("expected some items stolen; stats=%+v", st)
	}
	if consumedRemote.Load() == 0 {
		t.Fatal("expected remote-server clients to consume stolen work")
	}
}

func TestDisableSteal(t *testing.T) {
	cfg := testConfig(2)
	cfg.DisableSteal = true
	w, _ := mpi.NewWorld(6)
	fail := time.AfterFunc(30*time.Second, func() { w.Abort(fmt.Errorf("hang")) })
	defer fail.Stop()
	var crossServer atomic.Int64
	err := w.Run(func(c *mpi.Comm) error {
		l := NewLayout(6, 2)
		if l.IsServer(c.Rank()) {
			return Serve(c, cfg)
		}
		cl, err := NewClient(c, cfg)
		if err != nil {
			return err
		}
		if cl.Rank() == 0 {
			for i := 0; i < 30; i++ {
				if err := cl.Put(typeWork, 0, AnyRank, []byte("x")); err != nil {
					return err
				}
			}
		}
		for {
			_, ok, err := cl.Get(typeWork)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if l.ServerOf(cl.Rank()) != l.ServerOf(0) {
				crossServer.Add(1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if crossServer.Load() != 0 {
		t.Fatalf("stealing disabled but %d items crossed servers", crossServer.Load())
	}
	if cfg.Stats.ItemsStolen.Load() != 0 {
		t.Fatal("stats recorded steals with stealing disabled")
	}
}

func TestDataStoreScalars(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		idI, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(idI, TypeInteger); err != nil {
			return err
		}
		if closed, err := probeClosed(cl, idI); err != nil || closed {
			return fmt.Errorf("unset datum reported closed: %v", err)
		}
		if err := cl.Store(idI, IntValue(42)); err != nil {
			return err
		}
		if err := awaitProbe(cl, idI); err != nil {
			return err
		}
		v, found, err := cl.Retrieve(idI)
		if err != nil || !found {
			return fmt.Errorf("retrieve: %v %v", found, err)
		}
		if r, err := readRow(v); err != nil || r.Kind() != chunk.KindInt || r.Int() != 42 {
			return fmt.Errorf("int row: %v %v", v, err)
		}
		if closed, err := probeClosed(cl, idI); err != nil || !closed {
			return fmt.Errorf("set datum not closed: %v", err)
		}
		if err := awaitProbe(cl, idI); err != nil {
			return err
		}
		// Double store must fail.
		if err := sent(cl, cl.Store(idI, IntValue(43))); err == nil {
			return fmt.Errorf("double store succeeded")
		}
		// Type mismatch must fail.
		idF, _ := cl.Unique()
		if err := cl.Create(idF, TypeFloat); err != nil {
			return err
		}
		if err := sent(cl, cl.Store(idF, StringValue("oops"))); err == nil {
			return fmt.Errorf("type-mismatched store succeeded")
		}
		if err := cl.Store(idF, FloatValue(2.5)); err != nil {
			return err
		}
		v, _, _ = cl.Retrieve(idF)
		if r, err := readRow(v); err != nil || r.Kind() != chunk.KindFloat || r.Float() != 2.5 {
			return fmt.Errorf("float row: %v %v", v, err)
		}
		// String round-trip.
		idS, _ := cl.Unique()
		cl.Create(idS, TypeString)
		cl.Store(idS, StringValue("héllo"))
		v, _, _ = cl.Retrieve(idS)
		if r, err := readRow(v); err != nil || r.Kind() != chunk.KindString || string(r.Bytes()) != "héllo" {
			return fmt.Errorf("string row: %v %v", v, err)
		}
		// Blob round-trip.
		idB, _ := cl.Unique()
		cl.Create(idB, TypeBlob)
		cl.Store(idB, BlobValue([]byte{0, 1, 2, 255}))
		v, _, _ = cl.Retrieve(idB)
		if r, err := readRow(v); err != nil || r.Kind() != chunk.KindBlob || !bytes.Equal(r.Bytes(), []byte{0, 1, 2, 255}) {
			return fmt.Errorf("blob row: %v %v", v, err)
		}
		// Missing id.
		_, found, err = cl.Retrieve(999999)
		if err != nil || found {
			return fmt.Errorf("retrieve missing: found=%v err=%v", found, err)
		}
		_, ok, err := cl.Get(typeWork)
		if ok || err != nil {
			return fmt.Errorf("shutdown: %v %v", ok, err)
		}
		return nil
	})
}

func TestUniqueIDsDistinct(t *testing.T) {
	var mu sync_ids
	runWorld(t, 4, 2, func(cl *Client) error {
		for i := 0; i < 100; i++ {
			id, err := cl.Unique()
			if err != nil {
				return err
			}
			if !mu.add(id) {
				return fmt.Errorf("duplicate id %d", id)
			}
		}
		_, ok, err := cl.Get(typeWork)
		if ok || err != nil {
			return fmt.Errorf("shutdown: %v %v", ok, err)
		}
		return nil
	})
}

// sync_ids is a tiny concurrent set for the uniqueness test. (Its old
// lazily-initialised channel lock raced when several rank goroutines hit
// the first add concurrently; a mutex has no init window.)
type sync_ids struct {
	mu  sync.Mutex
	set map[int64]bool
}

func (s *sync_ids) add(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.set == nil {
		s.set = map[int64]bool{}
	}
	if s.set[id] {
		return false
	}
	s.set[id] = true
	return true
}

// TestProbeReleasedByAnotherClientsStore: client 1 waits on a datum
// with a probe, client 0 stores it, and client 1 receives the probe
// through its Get loop, with the datum's value riding it, whichever of
// the Put and the Store reaches the server first.
func TestProbeReleasedByAnotherClientsStore(t *testing.T) {
	idCh := make(chan int64, 1)
	runWorld(t, 3, 1, func(cl *Client) error {
		switch cl.Rank() {
		case 0:
			id, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := sent(cl, cl.Create(id, TypeInteger)); err != nil {
				return err
			}
			idCh <- id
			time.Sleep(5 * time.Millisecond) // let rank 1 wait first sometimes
			if err := cl.Store(id, IntValue(7)); err != nil {
				return err
			}
			_, ok, err := cl.Get(typeControl)
			if ok {
				return fmt.Errorf("rank 0 should see shutdown, not work")
			}
			return err
		case 1:
			id := <-idCh
			if err := probe(cl, id); err != nil {
				return err
			}
			if err := awaitProbe(cl, id); err != nil {
				return err
			}
			loads := cl.cfg.Stats.OpChunkLoad.Load()
			v, found, err := cl.Retrieve(id)
			if r, rerr := readRow(v); err != nil || !found || rerr != nil || r.Int() != 7 {
				return fmt.Errorf("retrieve: %v %v %v %v", v, found, err, rerr)
			}
			if n := cl.cfg.Stats.OpChunkLoad.Load() - loads; n != 0 {
				return fmt.Errorf("reading the probed datum cost %d chunk loads, want 0", n)
			}
			return drainShutdown(cl)
		}
		return drainShutdown(cl)
	})
}

func drainShutdown(cl *Client) error {
	for {
		_, ok, err := cl.Get(typeControl)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

func TestContainers(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		c, _ := cl.Unique()
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		// Lookup of a missing subscript finds nothing and makes nothing.
		if _, exists, err := cl.Lookup(c, "0"); err != nil || exists {
			return fmt.Errorf("lookup missing: exists=%v err=%v", exists, err)
		}
		m0, _ := cl.Unique()
		if err := cl.Insert(c, "0", m0); err != nil {
			return err
		}
		if m, exists, err := cl.Lookup(c, "0"); err != nil || !exists || m != m0 {
			return fmt.Errorf("lookup: %d vs %d exists=%v err=%v", m, m0, exists, err)
		}
		m1, _ := cl.Unique()
		cl.Create(m1, TypeString)
		if err := cl.Insert(c, "1", m1); err != nil {
			return err
		}
		if err := sent(cl, cl.Insert(c, "1", m1)); err == nil {
			return fmt.Errorf("duplicate insert succeeded")
		}
		pairs, err := cl.Enumerate(c)
		if err != nil {
			return err
		}
		if len(pairs) != 2 || pairs[0].Subscript != "0" || pairs[1].Subscript != "1" {
			return fmt.Errorf("enumerate: %+v", pairs)
		}
		// Close via refcount; then inserts fail and held rules go.
		if closed, err := probeClosed(cl, c); err != nil || closed {
			return fmt.Errorf("container closed too early: %v", err)
		}
		if err := cl.WriteRefcount(c, -1); err != nil {
			return err
		}
		if err := awaitProbe(cl, c); err != nil {
			return err
		}
		if err := sent(cl, cl.Insert(c, "2", m1)); err == nil {
			return fmt.Errorf("insert into closed container succeeded")
		}
		closed, err := probeClosed(cl, c)
		if err != nil || !closed {
			return fmt.Errorf("probe of closed container: %v %v", closed, err)
		}
		if err := awaitProbe(cl, c); err != nil {
			return err
		}
		return drainShutdown(cl)
	})
}

func TestContainerRefcountNested(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		c, _ := cl.Unique()
		cl.Create(c, TypeContainer)
		// Simulate two writer branches.
		if err := cl.WriteRefcount(c, 2); err != nil {
			return err
		}
		cl.WriteRefcount(c, -1)
		cl.WriteRefcount(c, -1)
		if closed, err := probeClosed(cl, c); err != nil || closed {
			return fmt.Errorf("closed while creator ref outstanding: %v", err)
		}
		cl.WriteRefcount(c, -1)
		if err := awaitProbe(cl, c); err != nil {
			return fmt.Errorf("not closed after all refs dropped: %w", err)
		}
		return drainShutdown(cl)
	})
}

// TestRefcountOnClosedContainerRefused: a container's close is announced
// once, to the rules held on it, so a write refcount raised after the
// close is refused, as an Insert into it is, and the container keeps the
// members those rules saw.
func TestRefcountOnClosedContainerRefused(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		c, _ := cl.Unique()
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		if err := probe(cl, c); err != nil {
			return err
		}
		if err := cl.WriteRefcount(c, -1); err != nil {
			return err
		}
		if err := awaitProbe(cl, c); err != nil {
			return err
		}
		want := fmt.Sprintf("adlb: refcount: refcount: container %d is closed", c)
		if err := sent(cl, cl.WriteRefcount(c, 1)); err == nil || err.Error() != want {
			return fmt.Errorf("raising a closed container's refcount: err = %v, want %q", err, want)
		}
		m, _ := cl.Unique()
		if err := sent(cl, cl.Insert(c, "9", m)); err == nil {
			return fmt.Errorf("insert after the refused reopen succeeded")
		}
		if pairs, err := cl.Enumerate(c); err != nil || len(pairs) != 0 {
			return fmt.Errorf("enumerate: %+v, %v; want no members", pairs, err)
		}
		return drainShutdown(cl)
	})
}

func TestCrossRankDataFlow(t *testing.T) {
	// Data created on one client, stored by another, read by a third,
	// with 2 servers so ownership and forwarding paths are exercised.
	ids := make(chan int64, 1)
	vals := make(chan int64, 1)
	runWorld(t, 6, 2, func(cl *Client) error {
		switch cl.Rank() {
		case 0:
			id, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := sent(cl, cl.Create(id, TypeInteger)); err != nil {
				return err
			}
			ids <- id
		case 1:
			id := <-ids
			if err := sent(cl, cl.Store(id, IntValue(1234))); err != nil {
				return err
			}
			vals <- id
		case 2:
			id := <-vals
			v, found, err := cl.Retrieve(id)
			if err != nil || !found {
				return fmt.Errorf("retrieve: %v %v", found, err)
			}
			if r, err := readRow(v); err != nil || r.Int() != 1234 {
				return fmt.Errorf("value = %v %v", v, err)
			}
		}
		return drainShutdown(cl)
	})
}

func TestNotificationAcrossServers(t *testing.T) {
	// The waiting client's server differs from the datum's owner: the
	// close notifies the probe held at the owner, which must be forwarded
	// to the waiter's server.
	ids := make(chan int64, 4)
	st := runWorld(t, 6, 2, func(cl *Client) error {
		// clients 0,1 -> server idx 0; clients 2,3 -> server idx 1.
		switch cl.Rank() {
		case 3:
			// Allocate from server 1 so the datum is owned there, and
			// create it there before the others use it: the Create
			// otherwise waits for this client's next Get, behind which
			// client 1's Store may land first.
			id, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := sent(cl, cl.Create(id, TypeFloat)); err != nil {
				return err
			}
			ids <- id
			ids <- id
		case 0:
			// Wait from a client of server 0.
			id := <-ids
			if err := probe(cl, id); err != nil {
				return err
			}
			if err := awaitProbe(cl, id); err != nil {
				return err
			}
		case 1:
			id := <-ids
			time.Sleep(2 * time.Millisecond)
			if err := cl.Store(id, FloatValue(3.14)); err != nil {
				return err
			}
		}
		return drainShutdown(cl)
	})
	// Held at the owner, or released there at once, the probe crosses to
	// the waiter's server exactly once.
	if st.PutsForwarded != 1 {
		t.Fatalf("PutsForwarded = %d, want 1", st.PutsForwarded)
	}
}

func TestTerminationManyIdleClients(t *testing.T) {
	// No work at all: all clients park and the system must terminate.
	start := time.Now()
	runWorld(t, 10, 3, func(cl *Client) error {
		return drainShutdown(cl)
	})
	if time.Since(start) > 10*time.Second {
		t.Fatal("termination took too long")
	}
}

func TestTerminationAfterChainedWork(t *testing.T) {
	// Workers that spawn follow-up work; termination must wait for the chain.
	var total atomic.Int64
	runWorld(t, 5, 1, func(cl *Client) error {
		if cl.Rank() == 0 {
			if err := cl.Put(typeWork, 0, AnyRank, []byte{5}); err != nil {
				return err
			}
		}
		for {
			p, ok, err := cl.Get(typeWork)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			total.Add(1)
			if p[0] > 0 {
				// Spawn two children of depth-1.
				for i := 0; i < 2; i++ {
					if err := cl.Put(typeWork, 0, AnyRank, []byte{p[0] - 1}); err != nil {
						return err
					}
				}
			}
		}
	})
	// A chain of depth 5 spawning 2 children each: 2^6 - 1 = 63 tasks.
	if total.Load() != 63 {
		t.Fatalf("executed %d tasks, want 63", total.Load())
	}
}

func TestPutInvalidType(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		if err := sent(cl, cl.Put(99, 0, AnyRank, nil)); err == nil {
			return fmt.Errorf("invalid work type accepted")
		}
		if err := sent(cl, cl.Put(typeWork, 0, 50, nil)); err == nil {
			return fmt.Errorf("invalid target accepted")
		}
		return drainShutdown(cl)
	})
}

// readRow reads v through its row, as every reader of a stored scalar's
// bytes does.
func readRow(v Value) (chunk.Reader, error) {
	var c chunk.Chunk
	err := row(&v, &c)
	r := c.Reader()
	r.Next()
	return r, err
}

// TestValueCodecs: a value's row carries its type as the row kind and
// its payload as the column the kind selects, and reads back as the same
// value; a value with no row form is refused.
func TestValueCodecs(t *testing.T) {
	for _, v := range []Value{IntValue(-99), FloatValue(-2.75), StringValue("x"), VoidValue(),
		{Type: TypeBlob, Bytes: []byte{1, 2}, Dims: []int{2, 1}, Elem: 1}} {
		r, err := readRow(v)
		if err != nil || DataType(r.Kind()) != v.Type {
			t.Fatalf("%v: kind %d, %v", v, r.Kind(), err)
		}
		var back Value
		if rowValue(&r, &back); back.Type != v.Type || !bytes.Equal(back.Bytes, v.Bytes) ||
			back.Elem != v.Elem || fmt.Sprint(back.Dims) != fmt.Sprint(v.Dims) {
			t.Fatalf("%v read back as %v", v, back)
		}
	}
	for _, bad := range []Value{{Type: TypeInteger, Bytes: []byte{1}}, {Type: TypeFloat}, {Type: TypeContainer}, {}} {
		if err := row(&bad, &chunk.Chunk{}); err == nil {
			t.Fatalf("row accepted %v", bad)
		}
	}
	f := func(v int64) bool {
		r, err := readRow(IntValue(v))
		return err == nil && r.Kind() == chunk.KindInt && r.Int() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(v float64) bool {
		r, err := readRow(FloatValue(v))
		out := r.Float()
		return err == nil && r.Kind() == chunk.KindFloat && (out == v || (v != v && out != out)) // NaN-safe
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkQueueDrainHalf(t *testing.T) {
	q := &workQueue{}
	for i := 0; i < 10; i++ {
		q.push(&workItem{Type: 0, Priority: i, Payload: []byte{byte(i)}})
	}
	given := q.drainHalf()
	if len(given) != 5 {
		t.Fatalf("drained %d, want 5", len(given))
	}
	// The given items must be the lowest-priority ones.
	for _, w := range given {
		if w.Priority > 4 {
			t.Fatalf("high-priority item %d given away", w.Priority)
		}
	}
	if q.len() != 5 {
		t.Fatalf("kept %d, want 5", q.len())
	}
	// Single-item queue gives its only item.
	q2 := &workQueue{}
	q2.push(&workItem{})
	if got := q2.drainHalf(); len(got) != 1 {
		t.Fatalf("single-item drain: %d", len(got))
	}
	// Empty queue gives nothing.
	if got := q2.drainHalf(); got != nil {
		t.Fatalf("empty drain: %v", got)
	}
}

func TestWorkQueueProperty(t *testing.T) {
	// Pop order is always (priority desc, FIFO within priority).
	f := func(prios []uint8) bool {
		if len(prios) > 300 {
			return true
		}
		q := &workQueue{}
		for i, p := range prios {
			q.push(&workItem{Priority: int(p % 8), Payload: []byte{byte(i)}})
		}
		lastPrio := 1 << 30
		seqAt := map[int]int{} // priority -> last seq seen
		for {
			w, ok := q.pop()
			if !ok {
				break
			}
			if w.Priority > lastPrio {
				return false
			}
			lastPrio = w.Priority
			idx := int(w.Payload[0])
			if prev, ok := seqAt[w.Priority]; ok && idx < prev {
				return false // FIFO violated within priority class
			}
			seqAt[w.Priority] = idx
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	e := &encoder{}
	e.u8(7)
	e.u32(0xDEADBEEF)
	e.u64(1 << 40)
	e.i32(-5)
	e.i64(-1 << 50)
	e.str("hello")
	e.bytes([]byte{1, 2, 3})
	e.boolean(true)
	e.boolean(false)
	d := &decoder{buf: e.buf}
	if d.u8() != 7 || d.u32() != 0xDEADBEEF || d.u64() != 1<<40 ||
		d.i32() != -5 || d.i64() != -1<<50 || d.str() != "hello" {
		t.Fatal("scalar round trip failed")
	}
	if b := d.bytes(); len(b) != 3 || b[2] != 3 {
		t.Fatal("bytes round trip failed")
	}
	if !d.boolean() || d.boolean() {
		t.Fatal("bool round trip failed")
	}
	if d.err != nil {
		t.Fatal(d.err)
	}
	// Truncation must set err, not panic.
	d2 := &decoder{buf: []byte{1, 2}}
	_ = d2.u64()
	if d2.err == nil {
		t.Fatal("expected truncation error")
	}
	if !strings.Contains(d2.err.Error(), "truncated") {
		t.Fatalf("err = %v", d2.err)
	}
}
