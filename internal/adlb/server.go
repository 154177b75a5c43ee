package adlb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chunk"
	"repro/internal/faultinject"
	"repro/internal/mpi"
)

// datum is one entry of the distributed data store. Scalars close when
// stored; containers close when their write refcount drops to zero.
// Subscribers are client ranks to be notified (via targeted notification
// work items) when the datum closes. A scalar the owner issued but nobody
// created comes into being at its first use: a Store makes it typed and
// closed, a Subscribe makes it an untyped placeholder (typ 0) that the
// first Store types.
type datum struct {
	typ         DataType
	set         bool
	val         Value
	subscribers []int
	// container state
	members   map[string]int64
	order     []string
	writeRefs int
}

func (d *datum) closed() bool {
	if d.typ == TypeContainer {
		return d.writeRefs <= 0
	}
	return d.set
}

type targetKey struct {
	typ    int
	target int
}

// parkedReq is one client's deferred Get: the work type it wants and
// whether delivery should be leased.
type parkedReq struct {
	typ    int
	leased bool
}

// lease tracks one work item handed to a client under a lease. The item
// is kept server-side until the client settles the lease (implicitly by
// its next Get, or explicitly via Fail) or departs, at which point the
// item can be requeued with its priority preserved.
type lease struct {
	w      workItem
	client int
}

// server implements the ADLB server role: work queues, parked client
// requests, inter-server work stealing, the distributed data store, and
// Safra's termination-detection algorithm over the server ring.
type server struct {
	c   *mpi.Comm
	cfg Config
	l   Layout
	idx int // server index in [0, Servers)

	nClients int // clients assigned to this server (static layout)
	// known is the dynamic client roster in elastic mode: clients
	// register on their first RPC to their home server. nil when the
	// config is not elastic.
	known map[int]bool

	untargeted map[int]*workQueue
	targeted   map[targetKey]*workQueue
	parked     map[int]parkedReq // client rank -> deferred Get
	parkOrder  []int             // FIFO of parked client ranks
	departed   map[int]bool      // clients told NO_MORE_WORK; targeted queues GC'd

	leases    map[int64]lease // outstanding leased work, by lease id
	nextLease int64

	// Watchdog state: consecutive loop iterations without a client RPC
	// or work-bearing server message. See checkStalled.
	idle     int
	progress bool

	store  map[int64]*datum
	nextID int64
	// scratch is the reusable column buffer behind opRetrieveChunk
	// responses (the server loop is single-goroutine, so one is enough).
	scratch chunk.Chunk

	// Safra termination detection state.
	black      bool  // this server's colour
	mcount     int64 // counted messages sent minus received
	haveToken  bool
	tokenQ     int64
	tokenBlack bool
	roundOpen  bool // master only: a token is circulating

	stealOut     bool // a steal request is outstanding
	stealRR      int  // round-robin victim cursor
	stealBackoff int  // ticks to wait between steals after empty responses
	stealWait    int  // remaining ticks before the next steal attempt
	draining     bool
	doneCount    int // clients that have received NO_MORE_WORK
	selfHalted   bool
}

func newServer(c *mpi.Comm, cfg Config, l Layout) *server {
	idx := l.ServerIndex(c.Rank())
	s := &server{
		c:          c,
		cfg:        cfg,
		l:          l,
		idx:        idx,
		nClients:   l.clientsOfServer(idx),
		untargeted: make(map[int]*workQueue),
		targeted:   make(map[targetKey]*workQueue),
		parked:     make(map[int]parkedReq),
		departed:   make(map[int]bool),
		leases:     make(map[int64]lease),
		store:      make(map[int64]*datum),
		nextID:     int64(l.Servers + idx), // ids ≡ idx (mod Servers), skipping id 0
		stealRR:    (idx + 1) % l.Servers,
	}
	if cfg.Elastic {
		s.known = make(map[int]bool)
		// Hub-local clients (engines) always run: pre-register them so a
		// quiet worker-only roster can't satisfy termination before the
		// first engine RPC arrives.
		for r := 0; r < cfg.StaticClients && r < l.Clients(); r++ {
			if l.ServerOf(r) == c.Rank() {
				s.known[r] = true
			}
		}
	}
	return s
}

// clientCount is the number of clients this server is responsible for:
// the static layout assignment normally, or the registered roster in
// elastic mode. Every exit/termination condition (run-loop drain, the
// hang watchdog, Safra quiescence) closes over it, so an elastic run
// terminates against the clients that actually showed up rather than the
// world's worker-slot capacity.
func (s *server) clientCount() int {
	if s.known != nil {
		return len(s.known)
	}
	return s.nClients
}

func (s *server) stats() *Stats { return s.cfg.Stats }

func (s *server) run() error {
	// Whatever ends this loop — clean drain, internal error, or an
	// injected crash — clients still parked in Get must be unblocked with
	// an error response, or they hang in Recv forever (their Gets are
	// synchronous and the dead server would never answer).
	defer s.releaseParked()
	tick := s.cfg.tick()
	for {
		data, st, ok, err := s.c.RecvTimeout(mpi.AnySource, mpi.AnyTag, tick)
		if err != nil {
			return err
		}
		if ok {
			if err := s.dispatch(data, st); err != nil {
				s.c.World().Abort(err)
				return err
			}
			if err := faultinject.At(faultinject.SiteServerLoop); err != nil {
				if faultinject.IsCrash(err) {
					// Simulated silent server death: exit without draining
					// or aborting the world.
					return nil
				}
				s.c.World().Abort(err)
				return err
			}
		}
		if s.selfHalted && s.doneCount >= s.clientCount() {
			s.gaugeUnfilled()
			return nil
		}
		if !s.draining {
			s.housekeeping()
			if s.progress {
				s.progress = false
				s.idle = 0
			} else {
				s.idle++
			}
			if err := s.checkStalled(); err != nil {
				s.c.World().Abort(err)
				return err
			}
		}
	}
}

// releaseParked answers every client still parked in Get with an error.
// After a normal drain the parked set is empty and this is a no-op; it
// matters when the server loop exits early (internal error, injected
// crash): without it, parked clients would deadlock the run instead of
// returning (nil, false, err).
func (s *server) releaseParked() {
	for client := range s.parked {
		// Best-effort: the world may already be aborting.
		_ = s.respondError(client, fmt.Sprintf(
			"adlb: server %d shut down while client %d was parked in Get", s.idx, client))
	}
	s.parked = make(map[int]parkedReq)
	s.parkOrder = nil
}

// gaugeUnfilled records, at clean drain, how many data-store entries
// never closed. A run that recovered from task failures must leave this
// at zero: a leaked write refcount after a contained panic would show up
// here as a permanently open container.
func (s *server) gaugeUnfilled() {
	if s.stats() == nil {
		return
	}
	n := 0
	for _, dm := range s.store {
		if !dm.closed() {
			n++
		}
	}
	if n > 0 {
		s.stats().UnfilledTDs.Add(int64(n))
	}
}

// checkStalled is the hang watchdog: when every assigned client is
// parked or departed, yet work is still queued (or leases are still
// outstanding) and nothing has arrived for watchdogTicks loop
// iterations, no TD can ever make progress — the demand for the queued
// types is gone. Abort with a diagnostic naming the stranded work and
// parked ranks instead of deadlocking. Mid-task clients (neither parked
// nor departed) suppress the watchdog: they may yet produce progress.
func (s *server) checkStalled() error {
	limit := s.cfg.watchdogTicks()
	if limit <= 0 || s.idle < limit {
		return nil
	}
	if len(s.parked)+s.doneCount < s.clientCount() {
		// Someone is mid-task (e.g. a long-running leaf); not a hang.
		s.idle = 0
		return nil
	}
	queued := 0
	byType := make(map[int]int)
	for t, q := range s.untargeted {
		queued += q.len()
		byType[t] += q.len()
	}
	for k, q := range s.targeted {
		queued += q.len()
		byType[k.typ] += q.len()
	}
	if queued == 0 && len(s.leases) == 0 {
		// Idle but healthy: termination detection will finish the run.
		s.idle = 0
		return nil
	}
	var types []string
	for t, n := range byType {
		types = append(types, fmt.Sprintf("type %d: %d item(s)", t, n))
	}
	sort.Strings(types)
	var parked []string
	for _, r := range s.parkOrder {
		if req, ok := s.parked[r]; ok {
			parked = append(parked, fmt.Sprintf("rank %d (wants type %d)", r, req.typ))
		}
	}
	var departed []int
	for r := range s.departed {
		departed = append(departed, r)
	}
	sort.Ints(departed)
	unfilled := 0
	for _, dm := range s.store {
		if !dm.closed() {
			unfilled++
		}
	}
	return fmt.Errorf("adlb: server %d: hang detected — no progress for %d ticks with work stranded: "+
		"queued [%s], %d outstanding lease(s), %d unfilled TD(s); parked clients [%s], departed clients %v",
		s.idx, s.idle, strings.Join(types, "; "), len(s.leases), unfilled,
		strings.Join(parked, ", "), departed)
}

// housekeeping runs between messages: retries steals, forwards or
// initiates termination tokens.
func (s *server) housekeeping() {
	if len(s.parked) > 0 && !s.stealOut {
		if s.stealWait > 0 {
			s.stealWait--
		} else {
			s.maybeSteal()
		}
	}
	if s.haveToken && s.quiet() {
		s.forwardToken()
	}
	if s.idx == 0 && !s.roundOpen && s.quiet() && (s.known == nil || len(s.known) > 0) {
		// In elastic mode an empty roster is pre-start, not quiescence:
		// rank 0 (an engine, home-served by the master) always registers
		// before real work exists, so gating on a non-empty roster only
		// delays the first token round past startup.
		s.startTokenRound()
	}
}

// quiet reports whether this server is locally passive: every assigned
// client is parked in Get or has departed, all queues are empty, and no
// steal is pending. Departed clients count as passive — a client that
// crashed with leases outstanding must not block termination forever
// (its reclaimed work is covered by the queue checks). A client that
// never parks is the opposite: it keeps its home server from reporting
// passive, so termination tokens neither start there nor pass through —
// how an idle serving world stays up until its gateway Leaves.
func (s *server) quiet() bool {
	if len(s.parked)+s.doneCount != s.clientCount() || s.stealOut {
		return false
	}
	for _, q := range s.untargeted {
		if q.len() > 0 {
			return false
		}
	}
	for _, q := range s.targeted {
		if q.len() > 0 {
			return false
		}
	}
	return true
}

func (s *server) dispatch(data []byte, st mpi.Status) error {
	d := &decoder{buf: data}
	op := d.u8()
	switch st.Tag {
	case tagRequest:
		err := s.handleRequest(op, d, st.Source)
		// Request frames are recycled once handled — except for store-ish
		// ops, whose decoded value bytes alias the frame (the zero-copy
		// store: datums keep views into the request instead of copies),
		// making the frame's lifetime the datum's.
		if !retainsRequestFrame(op) {
			s.c.Release(data)
		}
		return err
	case tagServer:
		// Server-to-server frames never leak aliases: work-item payloads
		// are copied at decode (they outlive frames in queues and leases).
		err := s.handleServer(op, d, st.Source)
		s.c.Release(data)
		return err
	}
	return fmt.Errorf("adlb: server %d: unexpected tag %d from %d", s.idx, st.Tag, st.Source)
}

// retainsRequestFrame reports whether handling op stores slices that
// alias the request frame, pinning it for the life of the data store.
func retainsRequestFrame(op uint8) bool {
	switch op {
	case opStore, opStoreChunk:
		return true
	}
	return false
}

// ---------- client RPCs ----------

func (s *server) respond(client int, build func(*encoder)) error {
	e := getEncoder()
	build(e)
	frame, err := e.frame()
	if err != nil {
		putEncoder(e)
		return err
	}
	err = s.c.Send(client, tagResponse, frame)
	putEncoder(e)
	return err
}

func (s *server) respondError(client int, msg string) error {
	return s.respond(client, func(e *encoder) {
		e.u8(stError)
		e.str(msg)
	})
}

func (s *server) handleRequest(op uint8, d *decoder, client int) error {
	// Any client RPC is progress for the hang watchdog.
	s.progress = true
	// Elastic registration: a client joins this server's roster on its
	// first RPC — but only on its home server. Data ops route by id owner
	// and may land on any server; counting those would inflate rosters
	// with clients whose Gets (and eventual departure) happen elsewhere.
	if s.known != nil && s.l.ServerOf(client) == s.c.Rank() {
		s.known[client] = true
	}
	switch op {
	case opPut:
		return s.handlePut(d, client)
	case opGet:
		return s.handleGet(d, client)
	case opFail:
		return s.handleFail(d, client)
	case opLeave:
		return s.handleLeave(d, client)
	case opUnique:
		return s.handleUnique(d, client)
	case opCreate, opStore, opSubscribe, opInsert, opLookup,
		opEnumerate, opWriteRefcount, opRetrieveChunk, opStoreChunk:
		if st := s.stats(); st != nil {
			st.countDataOp(op)
		}
		return s.handleData(op, d, client)
	}
	return fmt.Errorf("adlb: server %d: unknown opcode %d from client %d", s.idx, op, client)
}

func (s *server) handlePut(d *decoder, client int) error {
	w := decodeWorkItem(d)
	if err := d.finish("put request"); err != nil {
		return err
	}
	if w.Type < 0 || w.Type >= s.cfg.Types {
		return s.respondError(client, fmt.Sprintf("put: invalid work type %d", w.Type))
	}
	if w.Target != AnyRank {
		if w.Target < 0 || w.Target >= s.l.Clients() {
			return s.respondError(client, fmt.Sprintf("put: invalid target rank %d", w.Target))
		}
		if err := faultinject.At(faultinject.SitePutTargeted); err != nil {
			return s.respondError(client, err.Error())
		}
		owner := s.l.ServerOf(w.Target)
		if owner != s.c.Rank() {
			// Forward to the target's server; counted for Safra.
			if err := s.sendServer(owner, sopPutForward, true, func(e *encoder) {
				encodeWorkItem(e, w)
			}); err != nil {
				return err
			}
			if s.stats() != nil {
				s.stats().PutsForwarded.Add(1)
			}
			return s.respond(client, func(e *encoder) { e.u8(stOK) })
		}
	}
	s.acceptWork(w)
	if s.stats() != nil {
		s.stats().PutsLocal.Add(1)
	}
	return s.respond(client, func(e *encoder) { e.u8(stOK) })
}

// acceptWork enqueues w and immediately matches parked clients against
// the queue. Enqueue-then-match (rather than handing w itself to a
// parked client) makes delivery priority-aware by construction: a parked
// client always receives the highest-priority queued item, never merely
// the most recently arrived one.
func (s *server) acceptWork(w workItem) {
	if !s.enqueue(w) {
		return
	}
	s.matchParked(w.Type, w.Target)
}

// enqueue adds w to the appropriate queue (no delivery). It reports
// whether the item was queued; targeted items at departed clients are
// dropped and counted instead of stranded.
func (s *server) enqueue(w workItem) bool {
	if w.Target != AnyRank {
		if s.departed[w.Target] {
			// The target has been told NO_MORE_WORK and will never Get
			// again; queueing would strand the item (and its payload)
			// until process exit. Drop it, visibly.
			if s.stats() != nil {
				s.stats().TargetedDropped.Add(1)
			}
			return false
		}
		k := targetKey{typ: w.Type, target: w.Target}
		q := s.targeted[k]
		if q == nil {
			q = &workQueue{}
			s.targeted[k] = q
		}
		q.push(w)
		return true
	}
	q := s.untargeted[w.Type]
	if q == nil {
		q = &workQueue{}
		s.untargeted[w.Type] = q
	}
	q.push(w)
	return true
}

// matchParked hands queued items of (typ, target) to matching parked
// clients, longest-parked client first, highest-priority item first
// (priority-aware parked matching: when a batch — e.g. a steal response
// — lands while clients are parked, each client must receive the best
// queued item, not the batch's arrival order).
func (s *server) matchParked(typ, target int) {
	if target != AnyRank {
		k := targetKey{typ: typ, target: target}
		q := s.targeted[k]
		if q == nil {
			return
		}
		if req, ok := s.parked[target]; ok && req.typ == typ {
			if w, ok := q.pop(); ok {
				s.deliver(target, w)
			}
		}
		if q.len() == 0 {
			delete(s.targeted, k)
		}
		return
	}
	q := s.untargeted[typ]
	if q == nil {
		return
	}
	for q.len() > 0 {
		client, ok := -1, false
		for _, r := range s.parkOrder {
			if req, p := s.parked[r]; p && req.typ == typ {
				client, ok = r, true
				break
			}
		}
		if !ok {
			return
		}
		w, _ := q.pop()
		s.deliver(client, w)
	}
}

// deliver answers a parked (or newly parked) client's Get with work.
// The client leaves both the parked map and the park FIFO here: leaving
// stale FIFO entries behind (as targeted deliveries and notifications
// once did) lets a client that re-parks inherit its old, earlier queue
// position, so the earliest-ever-parked rank wins every untargeted
// dispatch and the rest starve.
func (s *server) deliver(client int, w workItem) {
	req := s.parked[client]
	delete(s.parked, client)
	s.unpark(client)
	s.serve(client, req.leased, w)
}

// serve answers a Get (parked or direct) with a work item, minting a
// lease when the client asked for one.
func (s *server) serve(client int, leased bool, w workItem) {
	if s.stats() != nil {
		s.stats().GetsServed.Add(1)
	}
	if err := faultinject.At(faultinject.SiteGetDeliver); err != nil {
		if !faultinject.IsCrash(err) {
			// Requeue so the injected delivery failure loses no work, then
			// surface the fault to the requesting client.
			s.enqueue(w)
			if rerr := s.respondError(client, err.Error()); rerr != nil {
				s.c.World().Abort(rerr)
			}
			return
		}
		s.c.World().Abort(err)
		return
	}
	var id int64
	if leased {
		id = s.newLease(client, w)
	}
	err := s.respond(client, func(e *encoder) {
		e.u8(stOK)
		if leased {
			e.i64(id)
		}
		encodeWorkItem(e, w)
	})
	if err != nil {
		s.c.World().Abort(err)
	}
}

// newLease records w as leased to client and returns the lease id.
// Ids are strictly positive and unique per server; 0 means "no lease".
func (s *server) newLease(client int, w workItem) int64 {
	s.nextLease++
	id := s.nextLease
	s.leases[id] = lease{w: w, client: client}
	if s.stats() != nil {
		s.stats().LeasesIssued.Add(1)
	}
	return id
}

// unpark removes client from the park FIFO. Each client appears at most
// once (it is appended only when parking in handleGet, and removed on
// every delivery), so removing the first match suffices.
func (s *server) unpark(client int) {
	for i, r := range s.parkOrder {
		if r == client {
			s.parkOrder = append(s.parkOrder[:i], s.parkOrder[i+1:]...)
			return
		}
	}
}

// clientDeparted records that a client has been handed NO_MORE_WORK and
// garbage-collects its targeted queues: nothing queued for it can ever
// be delivered, so the items (and their payloads) are dropped and
// counted rather than stranded until process exit.
func (s *server) clientDeparted(client int) {
	if s.departed[client] {
		// Idempotent: a client re-Getting after NO_MORE_WORK must not
		// advance doneCount toward the exit condition a second time.
		return
	}
	s.doneCount++
	s.departed[client] = true
	for k, q := range s.targeted {
		if k.target != client {
			continue
		}
		if s.stats() != nil {
			s.stats().TargetedDropped.Add(int64(q.len()))
		}
		delete(s.targeted, k)
	}
}

func (s *server) handleGet(d *decoder, client int) error {
	typ := int(d.i32())
	flags := d.u8()
	settle := d.i64()
	if err := d.finish("get request"); err != nil {
		return err
	}
	leased := flags&getFlagLeased != 0
	// A non-zero settle id completes the client's previous lease: the
	// task ran to completion, so the retained copy of the item can go.
	// Settlement piggybacks on the next Get rather than costing a
	// dedicated RPC per task. An unknown id is benign (e.g. the lease was
	// already settled by an explicit Fail).
	if settle != 0 {
		delete(s.leases, settle)
	}
	if s.draining {
		s.clientDeparted(client)
		return s.respond(client, func(e *encoder) { e.u8(stNoMoreWork) })
	}
	// Targeted work for this client first. An emptied queue leaves the
	// map immediately: long runs touch many (type, target) pairs, and the
	// map must not accumulate one dead queue per pair ever touched.
	k := targetKey{typ: typ, target: client}
	if q, ok := s.targeted[k]; ok {
		if w, ok := q.pop(); ok {
			if q.len() == 0 {
				delete(s.targeted, k)
			}
			s.serve(client, leased, w)
			return nil
		}
		delete(s.targeted, k)
	}
	if q, ok := s.untargeted[typ]; ok {
		if w, ok := q.pop(); ok {
			s.serve(client, leased, w)
			return nil
		}
	}
	// No work: park the request; the response is deferred.
	s.parked[client] = parkedReq{typ: typ, leased: leased}
	s.parkOrder = append(s.parkOrder, client)
	if s.stats() != nil {
		s.stats().GetsParked.Add(1)
	}
	if !s.stealOut {
		s.maybeSteal()
	}
	return nil
}

// handleFail settles a lease as failed: the item is requeued (bounded by
// the retry budget, priority preserved) or poisoned. Poisoning returns a
// run-ending error rather than a response — the task's outputs will
// never be stored, so every downstream rule would hang; surfacing the
// original failure reason beats deadlocking on it.
func (s *server) handleFail(d *decoder, client int) error {
	id := d.i64()
	reason := d.str()
	retriable := d.boolean()
	if err := d.finish("fail request"); err != nil {
		return err
	}
	le, ok := s.leases[id]
	if !ok {
		return s.respondError(client, fmt.Sprintf("fail: unknown lease %d", id))
	}
	delete(s.leases, id)
	if err := s.requeueOrPoison(le.w, reason, retriable); err != nil {
		return err
	}
	return s.respond(client, func(e *encoder) { e.u8(stOK) })
}

// handleLeave processes a voluntary or simulated-crash departure: every
// lease held by the client is reclaimed and requeued (or poisoned if its
// budget is spent), and the client is unregistered so termination
// detection treats it as passive from now on.
func (s *server) handleLeave(d *decoder, client int) error {
	if err := d.finish("leave request"); err != nil {
		return err
	}
	var ids []int64
	for id, le := range s.leases {
		if le.client == client {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		le := s.leases[id]
		delete(s.leases, id)
		if s.stats() != nil {
			s.stats().LeasesReclaimed.Add(1)
		}
		if le.w.Target == client {
			// The item was pinned to the rank that just died; requeueing it
			// still targeted would drop it as targeted-at-departed. Any
			// surviving rank may run it.
			le.w.Target = AnyRank
		}
		reason := fmt.Sprintf("owning client %d departed mid-task", client)
		if err := s.requeueOrPoison(le.w, reason, true); err != nil {
			return err
		}
	}
	if _, wasParked := s.parked[client]; wasParked {
		delete(s.parked, client)
		s.unpark(client)
	}
	s.clientDeparted(client)
	return s.respond(client, func(e *encoder) { e.u8(stOK) })
}

// maxTaskRetries bounds how many times a leased work item that failed
// retriably (or whose owning client departed mid-task) is requeued before
// the server poisons it and aborts the run: three attempts in all.
const maxTaskRetries = 2

// requeueOrPoison is the retry policy: a retriable failure within budget
// goes back in the queue with its priority preserved and its attempt
// count bumped; anything else is poisoned — counted, and surfaced as a
// run-ending error naming the task.
func (s *server) requeueOrPoison(w workItem, reason string, retriable bool) error {
	if retriable && w.Attempts < maxTaskRetries {
		w.Attempts++
		if s.stats() != nil {
			s.stats().Requeued.Add(1)
		}
		s.acceptWork(w)
		return nil
	}
	if s.stats() != nil {
		s.stats().Poisoned.Add(1)
	}
	kind := "not retriable"
	if retriable {
		kind = fmt.Sprintf("retry budget of %d exhausted", maxTaskRetries)
	}
	return fmt.Errorf("adlb: task poisoned after %d attempt(s) (%s): %s\n  task: %.200q",
		w.Attempts+1, kind, reason, w.Payload)
}

// issued reports whether this server handed id out: ids it issues are
// ≡ idx (mod Servers), from Servers+idx up to (excluding) nextID. Only
// such an id may come into being at its first Store or Subscribe, so a
// garbage id still fails.
func (s *server) issued(id int64) bool {
	first, stride := int64(s.l.Servers+s.idx), int64(s.l.Servers)
	return id >= first && id < s.nextID && (id-first)%stride == 0
}

func (s *server) handleUnique(d *decoder, client int) error {
	count := int64(d.i32())
	if err := d.finish("unique request"); err != nil {
		return err
	}
	if count < 1 {
		count = 1
	}
	start := s.nextID
	s.nextID += count * int64(s.l.Servers)
	return s.respond(client, func(e *encoder) {
		e.u8(stOK)
		e.i64(start)
		e.i32(int32(s.l.Servers)) // stride
	})
}

// ---------- data store ----------

func (s *server) handleData(op uint8, d *decoder, client int) error {
	switch op {
	case opCreate:
		id := d.i64()
		typ := DataType(d.u8())
		if err := d.finish("create request"); err != nil {
			return err
		}
		if _, exists := s.store[id]; exists {
			return s.respondError(client, fmt.Sprintf("create: id %d already exists", id))
		}
		dm := &datum{typ: typ}
		if typ == TypeContainer {
			dm.members = make(map[string]int64)
			dm.writeRefs = 1
		}
		s.store[id] = dm
		return s.respond(client, func(e *encoder) { e.u8(stOK) })

	case opStore:
		id := d.i64()
		c := decodeChunk(d)
		if err := d.finish("store request"); err != nil {
			return err
		}
		if c.Len() != 1 {
			return s.respondError(client, fmt.Sprintf("store: id %d: %d rows, want 1", id, c.Len()))
		}
		r := c.Reader()
		r.Next()
		v := rowValue(&r)
		dm, ok := s.store[id]
		if !ok {
			if !s.issued(id) {
				return s.respondError(client, fmt.Sprintf("store: no such id %d", id))
			}
			dm = &datum{}
			s.store[id] = dm
		}
		if dm.typ == 0 {
			dm.typ = v.Type
		}
		if dm.set {
			return s.respondError(client, fmt.Sprintf("store: id %d already set (single-assignment violation)", id))
		}
		if dm.typ == TypeContainer {
			return s.respondError(client, fmt.Sprintf("store: id %d is a container", id))
		}
		if v.Type != dm.typ && dm.typ != TypeVoid {
			return s.respondError(client, fmt.Sprintf("store: id %d is %v, value is %v", id, dm.typ, v.Type))
		}
		dm.val = v
		dm.set = true
		s.notifyAll(dm, id)
		return s.respond(client, func(e *encoder) { e.u8(stOK) })

	case opSubscribe:
		rank := int(d.i32())
		ids := decodeIDs(d, "subscribe ids")
		if err := d.finish("subscribe request"); err != nil {
			return err
		}
		// All-or-nothing: resolve every id before registering anything,
		// so a failed batch leaves no subscriber behind.
		for _, id := range ids {
			if _, ok := s.store[id]; !ok && !s.issued(id) {
				return s.respondError(client, fmt.Sprintf("subscribe: no such id %d", id))
			}
		}
		closed := make([]byte, len(ids))
		for i, id := range ids {
			dm := s.store[id]
			if dm == nil {
				dm = &datum{}
				s.store[id] = dm
			}
			if dm.closed() {
				closed[i] = 1
				continue
			}
			dm.subscribers = append(dm.subscribers, rank)
		}
		return s.respond(client, func(e *encoder) {
			e.u8(stOK)
			e.bytes(closed)
		})

	case opInsert:
		cid := d.i64()
		sub := d.str()
		member := d.i64()
		if err := d.finish("insert request"); err != nil {
			return err
		}
		dm, ok := s.store[cid]
		if !ok || dm.typ != TypeContainer {
			return s.respondError(client, fmt.Sprintf("insert: id %d is not a container", cid))
		}
		if dm.closed() {
			return s.respondError(client, fmt.Sprintf("insert: container %d is closed", cid))
		}
		if _, dup := dm.members[sub]; dup {
			return s.respondError(client, fmt.Sprintf("insert: container %d already has subscript %q", cid, sub))
		}
		dm.members[sub] = member
		dm.order = append(dm.order, sub)
		return s.respond(client, func(e *encoder) { e.u8(stOK) })

	case opLookup:
		cid := d.i64()
		sub := d.str()
		if err := d.finish("lookup request"); err != nil {
			return err
		}
		dm, ok := s.store[cid]
		if !ok || dm.typ != TypeContainer {
			return s.respondError(client, fmt.Sprintf("lookup: id %d is not a container", cid))
		}
		m, ok := dm.members[sub]
		if !ok {
			return s.respond(client, func(e *encoder) { e.u8(stNotFound) })
		}
		return s.respond(client, func(e *encoder) {
			e.u8(stOK)
			e.i64(m)
		})

	case opEnumerate:
		cid := d.i64()
		if err := d.finish("enumerate request"); err != nil {
			return err
		}
		dm, ok := s.store[cid]
		if !ok || dm.typ != TypeContainer {
			return s.respondError(client, fmt.Sprintf("enumerate: id %d is not a container", cid))
		}
		return s.respond(client, func(e *encoder) {
			e.u8(stOK)
			e.u32(uint32(len(dm.order)))
			for _, sub := range dm.order {
				e.str(sub)
				e.i64(dm.members[sub])
			}
		})

	case opWriteRefcount:
		id := d.i64()
		delta := int(d.i32())
		if err := d.finish("refcount request"); err != nil {
			return err
		}
		dm, ok := s.store[id]
		if !ok {
			return s.respondError(client, fmt.Sprintf("refcount: no such id %d", id))
		}
		if dm.typ != TypeContainer {
			return s.respondError(client, fmt.Sprintf("refcount: id %d is not a container", id))
		}
		wasClosed := dm.closed()
		dm.writeRefs += delta
		if dm.writeRefs < 0 {
			return s.respondError(client, fmt.Sprintf("refcount: id %d dropped below zero", id))
		}
		if !wasClosed && dm.closed() {
			s.notifyAll(dm, id)
		}
		return s.respond(client, func(e *encoder) { e.u8(stOK) })

	case opRetrieveChunk:
		// Columnar gather: all requested ids are owned here (the client
		// grouped by owner), so the whole lookup is local and the reply is
		// one chunk frame — contiguous typed columns. Many rows gather into
		// the scratch chunk, reused across RPCs (the server loop is
		// single-goroutine), so a steady gather stream allocates nothing
		// here. One id — Retrieve — replies with the datum's own row: its
		// payload is copied once, onto the wire, and never into scratch,
		// whose next append would then write into the datum.
		ids := decodeIDs(d, "retrieve_chunk ids")
		if err := d.finish("retrieve_chunk request"); err != nil {
			return err
		}
		s.scratch.Reset()
		for _, id := range ids {
			dm, ok := s.store[id]
			if !ok && !s.issued(id) {
				return s.respond(client, func(e *encoder) {
					e.u8(stNotFound)
					e.i64(id)
				})
			}
			if !ok || !dm.set {
				return s.respondError(client, fmt.Sprintf("retrieve_chunk: id %d is unset", id))
			}
			if len(ids) == 1 {
				r, err := row(dm.val)
				if err != nil {
					return s.respondError(client, fmt.Sprintf("retrieve_chunk: id %d: %v", id, err))
				}
				return s.respond(client, func(e *encoder) {
					e.u8(stOK)
					encodeChunk(e, r)
				})
			}
			if err := appendRow(&s.scratch, &dm.val); err != nil {
				return s.respondError(client, fmt.Sprintf("retrieve_chunk: id %d: %v", id, err))
			}
		}
		return s.respond(client, func(e *encoder) {
			e.u8(stOK)
			encodeChunk(e, s.scratch)
		})

	case opStoreChunk:
		// Columnar scatter into a container: one owner-local closed datum
		// per row, inserted at consecutive subscripts, all in one RPC. The
		// write refcount is the caller's to manage, as with Insert. Row
		// payloads alias the (retained) request frame and the datums come
		// from one slab, so the per-element cost is the subscript string
		// and its container map entry — no value copies, no boxes.
		cid := d.i64()
		c := decodeChunk(d)
		if err := d.finish("store_chunk request"); err != nil {
			return err
		}
		dm, ok := s.store[cid]
		if !ok || dm.typ != TypeContainer {
			return s.respondError(client, fmt.Sprintf("store_chunk: id %d is not a container", cid))
		}
		if dm.closed() {
			return s.respondError(client, fmt.Sprintf("store_chunk: container %d is closed", cid))
		}
		n := c.Len()
		base := len(dm.order)
		// Validate every target subscript before mutating anything, so a
		// failed store is all-or-nothing: partial member creation would
		// leave the container in a layout no call described.
		subs := make([]string, n)
		for i := range subs {
			subs[i] = strconv.Itoa(base + i)
			if _, dup := dm.members[subs[i]]; dup {
				return s.respondError(client, fmt.Sprintf("store_chunk: container %d already has subscript %q", cid, subs[i]))
			}
		}
		slab := make([]datum, n)
		r := c.Reader()
		for i := 0; i < n && r.Next(); i++ {
			dmv := &slab[i]
			dmv.val = rowValue(&r)
			dmv.typ, dmv.set = dmv.val.Type, true
			id := s.nextID
			s.nextID += int64(s.l.Servers)
			s.store[id] = dmv
			dm.members[subs[i]] = id
			dm.order = append(dm.order, subs[i])
		}
		return s.respond(client, func(e *encoder) { e.u8(stOK) })
	}
	return fmt.Errorf("adlb: unhandled data op %d", op)
}

// notifyAll wraps a close notification for each subscriber into a
// high-priority targeted work item and routes it to the subscriber's
// server. This is how a Store on one rank wakes dataflow rules on another.
func (s *server) notifyAll(dm *datum, id int64) {
	for _, rank := range dm.subscribers {
		w := workItem{
			Type:     s.cfg.NotifyType,
			Priority: notifyPriority,
			Target:   rank,
			Payload:  EncodeNotification(id),
		}
		if err := faultinject.At(faultinject.SitePutTargeted); err != nil {
			s.c.World().Abort(err)
			return
		}
		if s.stats() != nil {
			s.stats().Notifications.Add(1)
		}
		owner := s.l.ServerOf(rank)
		if owner == s.c.Rank() {
			s.acceptWork(w)
			continue
		}
		if err := s.sendServer(owner, sopPutForward, true, func(e *encoder) {
			encodeWorkItem(e, w)
		}); err != nil {
			s.c.World().Abort(err)
			return
		}
	}
	dm.subscribers = nil
}

// notifyPriority outranks ordinary work so dataflow wake-ups preempt
// queued leaf tasks, keeping engines busy generating work.
const notifyPriority = 1 << 20

// ---------- server-to-server ----------

// sendServer sends a server-to-server message. counted marks messages that
// transfer work and therefore participate in Safra's message counting.
// Empty steal traffic is deliberately uncounted: an outstanding steal
// request already makes the requesting server non-quiet (it holds the
// token and blocks the detection round), so only work-bearing messages can
// race with a completing round. Counting empty steal chatter would instead
// livelock detection — retries would keep blackening servers forever.
func (s *server) sendServer(dest int, op uint8, counted bool, build func(*encoder)) error {
	e := getEncoder()
	e.u8(op)
	build(e)
	frame, err := e.frame()
	if err != nil {
		putEncoder(e)
		return err
	}
	if counted {
		s.mcount++
	}
	err = s.c.Send(dest, tagServer, frame)
	putEncoder(e)
	return err
}

func (s *server) handleServer(op uint8, d *decoder, source int) error {
	switch op {
	case sopPutForward:
		s.mcount--
		s.black = true
		s.progress = true
		w := decodeWorkItem(d)
		if err := d.finish("put-forward"); err != nil {
			return err
		}
		s.acceptWork(w)
		if s.stats() != nil {
			s.stats().PutsLocal.Add(1)
		}
		return nil

	case sopStealReq:
		typ := int(d.i32())
		requester := int(d.i32())
		if err := d.finish("steal request"); err != nil {
			return err
		}
		var items []workItem
		if q, ok := s.untargeted[typ]; ok {
			items = q.drainHalf()
		}
		return s.sendServer(s.l.ServerRank(requester), sopStealResp, len(items) > 0, func(e *encoder) {
			e.u32(uint32(len(items)))
			for _, w := range items {
				encodeWorkItem(e, w)
			}
		})

	case sopStealResp:
		n := int(d.u32())
		s.stealOut = false
		if n > 0 {
			s.mcount--
			s.black = true
			s.progress = true
			s.stealBackoff = 0
			if s.stats() != nil {
				s.stats().StealHits.Add(1)
				s.stats().ItemsStolen.Add(int64(n))
			}
		} else if s.stealBackoff < 64 {
			// Empty response: back off exponentially so idle servers stop
			// hammering each other while termination detection proceeds.
			if s.stealBackoff == 0 {
				s.stealBackoff = 1
			} else {
				s.stealBackoff *= 2
			}
		}
		s.stealWait = s.stealBackoff
		// Enqueue the whole batch before matching any parked client:
		// item-by-item acceptance would hand the first-arrived item to
		// the longest-parked client even when a higher-priority sibling
		// is later in the same response.
		touched := map[targetKey]bool{}
		var order []targetKey
		for i := 0; i < n; i++ {
			w := decodeWorkItem(d)
			if d.err != nil {
				return d.err
			}
			if s.enqueue(w) {
				k := targetKey{typ: w.Type, target: w.Target}
				if !touched[k] {
					touched[k] = true
					order = append(order, k)
				}
			}
		}
		if err := d.finish("steal response"); err != nil {
			return err
		}
		for _, k := range order {
			s.matchParked(k.typ, k.target)
		}
		return nil

	case sopToken:
		s.tokenQ = d.i64()
		s.tokenBlack = d.boolean()
		if err := d.finish("token"); err != nil {
			return err
		}
		s.haveToken = true
		if s.quiet() {
			s.forwardToken()
		}
		return nil

	case sopShutdown:
		if err := d.finish("shutdown"); err != nil {
			return err
		}
		s.beginDrain()
		return nil
	}
	return fmt.Errorf("adlb: unhandled server op %d from %d", op, source)
}

// maybeSteal issues one steal request on behalf of parked clients. Victims
// rotate round-robin over the other servers.
func (s *server) maybeSteal() {
	if s.cfg.DisableSteal || s.l.Servers < 2 || len(s.parked) == 0 || s.stealOut {
		return
	}
	// Steal for the type of the longest-parked client.
	typ, ok := -1, false
	for _, r := range s.parkOrder {
		if req, p := s.parked[r]; p {
			typ, ok = req.typ, true
			break
		}
	}
	if !ok {
		return
	}
	victim := s.stealRR
	if victim == s.idx {
		victim = (victim + 1) % s.l.Servers
	}
	s.stealRR = (victim + 1) % s.l.Servers
	s.stealOut = true
	if s.stats() != nil {
		s.stats().StealReqs.Add(1)
	}
	err := s.sendServer(s.l.ServerRank(victim), sopStealReq, false, func(e *encoder) {
		e.i32(int32(typ))
		e.i32(int32(s.idx))
	})
	if err != nil {
		s.c.World().Abort(err)
	}
}

// ---------- Safra termination detection ----------

func (s *server) startTokenRound() {
	if s.l.Servers == 1 {
		// Single server: local quiescence is global (all client RPCs are
		// synchronous, so no in-flight messages can exist).
		s.terminate()
		return
	}
	s.roundOpen = true
	s.black = false
	if s.stats() != nil {
		s.stats().TokenRounds.Add(1)
	}
	err := s.sendServer(s.l.ServerRank(1), sopToken, false, func(e *encoder) {
		e.i64(0)
		e.boolean(false)
	})
	if err != nil {
		s.c.World().Abort(err)
	}
}

func (s *server) forwardToken() {
	if !s.haveToken {
		return
	}
	s.haveToken = false
	if s.idx == 0 {
		// Token completed the ring.
		s.roundOpen = false
		if !s.tokenBlack && !s.black && s.tokenQ+s.mcount == 0 {
			s.terminate()
		}
		// Otherwise a new round starts from housekeeping when quiet.
		return
	}
	q := s.tokenQ + s.mcount
	black := s.tokenBlack || s.black
	s.black = false
	next := (s.idx + 1) % s.l.Servers
	err := s.sendServer(s.l.ServerRank(next), sopToken, false, func(e *encoder) {
		e.i64(q)
		e.boolean(black)
	})
	if err != nil {
		s.c.World().Abort(err)
	}
}

// terminate broadcasts shutdown to all servers (master only) and begins
// the local drain.
func (s *server) terminate() {
	for i := 1; i < s.l.Servers; i++ {
		e := getEncoder()
		e.u8(sopShutdown)
		frame, err := e.frame()
		if err == nil {
			err = s.c.Send(s.l.ServerRank(i), tagServer, frame)
		}
		putEncoder(e)
		if err != nil {
			s.c.World().Abort(err)
			return
		}
	}
	s.beginDrain()
}

// beginDrain answers every parked client with NO_MORE_WORK and arranges
// for the server loop to exit once all assigned clients have been told.
func (s *server) beginDrain() {
	s.draining = true
	for _, r := range s.parkOrder {
		if _, ok := s.parked[r]; !ok {
			continue
		}
		delete(s.parked, r)
		s.clientDeparted(r)
		if err := s.respond(r, func(e *encoder) { e.u8(stNoMoreWork) }); err != nil {
			s.c.World().Abort(err)
			return
		}
	}
	s.parkOrder = nil
	s.selfHalted = true
}

const notifyMagic = 0xD7

// EncodeNotification builds the payload of a data-close notification work
// item. Turbine engines decode these in their Get loop.
func EncodeNotification(id int64) []byte {
	e := &encoder{}
	e.u8(notifyMagic)
	e.i64(id)
	frame, err := e.frame()
	if err != nil {
		// Two fixed-width scalars cannot fail to encode.
		panic(err)
	}
	return frame
}

// DecodeNotification reports whether payload is a data-close notification
// and, if so, the id that closed.
func DecodeNotification(payload []byte) (int64, bool) {
	if len(payload) != 9 || payload[0] != notifyMagic {
		return 0, false
	}
	d := &decoder{buf: payload, off: 1}
	id := d.i64()
	if d.finish("notification") != nil {
		return 0, false
	}
	return id, true
}
