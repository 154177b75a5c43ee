package adlb

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/chunk"
	"repro/internal/faultinject"
	"repro/internal/mpi"
)

// datum is one entry of the distributed data store. Scalars close when
// stored; containers close when their write refcount drops to zero.
// held are the rules waiting here for it to close. A scalar the owner
// issued but nobody created comes into being at its first use: a Store
// makes it typed and closed, a rule waiting on it makes it an untyped
// placeholder (typ 0) that the first Store types.
type datum struct {
	typ  DataType
	set  bool
	val  Value
	held []heldRule
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

// heldRule is a rule a server holds on the datum at wait[at]: wait
// is the id list the rule still had to see closed when it reached this
// server, and the ids before at that this server owns are closed.
type heldRule struct {
	w    workItem
	wait []int64
	at   int
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
// is kept server-side until a settle ends the lease (see settle): the
// task done, failed, handed back, or lost with its departed client, when
// the item is requeued with its priority preserved.
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

	// watchAt is the hang watchdog's deadline, zero while unarmed; progress
	// (a client RPC or a work-bearing server message) disarms it.
	watchAt time.Time

	store  map[int64]*datum
	nextID int64
	held   int // rules held on open data here
	// scratch is the reusable column buffer behind multi-row replies, and
	// rowVals and rowIDs the values and ids that fill it (the server loop
	// is single-goroutine, so one of each is enough).
	scratch chunk.Chunk
	rowVals []*Value
	rowIDs  []int64
	// get is the last Get's decoded body, closed the data its writes
	// closed, and items the work items of the reply being built, each
	// reused from one Get to the next.
	get    getRequest
	closed []*datum
	items  []workItem

	// Safra termination detection state.
	black      bool  // this server's colour
	mcount     int64 // counted messages sent minus received
	haveToken  bool
	tokenQ     int64
	tokenBlack bool
	roundOpen  bool // master only: a token is circulating

	stealOut     bool          // a steal request is outstanding
	stealRR      int           // round-robin victim cursor
	stealBackoff time.Duration // wait after the last empty steal reply; 0 after a hit
	stealAt      time.Time     // no steal retry before this; zero: none pending
	draining     bool
	doneCount    int // clients that have received NO_MORE_WORK

	// Master only: the stall reports of every server, by server index,
	// and how many of the other servers' have arrived.
	stalls   []string
	reported int
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
	if idx == 0 {
		s.stalls = make([]string, l.Servers)
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

// Steal retries back off after an empty steal reply, from minStealBackoff
// doubling to maxStealBackoff, so idle servers stop hammering each other
// while termination detection proceeds. A steal hit resets the backoff.
const (
	minStealBackoff = 200 * time.Microsecond
	maxStealBackoff = 64 * minStealBackoff
)

// run is the server loop. Every state change it acts on arrives as a
// message, so it sleeps in Recv, and in RecvTimeout only while a
// deadline is armed: a steal retry, or the hang watchdog.
func (s *server) run() error {
	// Whatever ends this loop — clean drain, internal error, or an
	// injected crash — clients still parked in Get must be unblocked with
	// an error response, or they hang in Recv forever (their Gets are
	// synchronous and the dead server would never answer).
	defer s.releaseParked()
	for {
		data, st, ok, err := s.recv()
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
		if !s.draining {
			s.housekeeping()
		}
		if err := s.watch(); err != nil {
			s.c.World().Abort(err)
			return err
		}
		// Checked after housekeeping, where a drain may just have begun,
		// so no idle wait comes between the drain and the return.
		if s.drained() {
			s.gaugeUnfilled()
			return s.finish()
		}
	}
}

// drained reports whether the server's run is over: it is draining and
// every client has been told NO_MORE_WORK, and, on the master, every
// other server has sent its stall report.
func (s *server) drained() bool {
	return s.draining && s.doneCount >= s.clientCount() &&
		(s.idx != 0 || s.reported == s.l.Servers-1)
}

// finish ends a drained run. The servers' stall diagnostics meet at the
// master: another server sends it its report ("" when no rule is stalled
// there) and returns nil, and the master, holding every report, returns
// one error naming the stalled rules of each server that has any. So the
// world aborts only once every server has drained and every client's
// NO_MORE_WORK is queued.
func (s *server) finish() error {
	if s.idx != 0 {
		return s.sendServer(s.l.ServerRank(0), sopStallReport, false, func(e *encoder) {
			e.str(s.stallReport())
		})
	}
	s.stalls[0] = s.stallReport()
	var msgs []string
	for _, m := range s.stalls {
		if m != "" {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return errors.New(strings.Join(msgs, "; "))
}

// releaseParked answers every client still parked in Get with an error.
// After a normal drain the parked set is empty and this is a no-op; it
// matters when the server loop exits early (internal error, injected
// crash): without it, parked clients would deadlock the run instead of
// returning (nil, false, err).
func (s *server) releaseParked() {
	for client := range s.parked {
		// Best-effort: the world may already be aborting.
		_ = s.respond(client, stError, fmt.Sprintf(
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

// stallReport runs once the server has drained: a clean termination
// leaves no rule held here on an unfilled TD. If any remain — a task
// was poisoned upstream, or the program never writes the data — it
// names them, by action, so the run fails instead of returning a silent
// success. "" means none.
func (s *server) stallReport() string {
	if s.held == 0 {
		return ""
	}
	var ids []int64
	var actions []string
	for id, dm := range s.store {
		if len(dm.held) == 0 {
			continue
		}
		ids = append(ids, id)
		for _, h := range dm.held {
			actions = append(actions, fmt.Sprintf("%.200s", describe(h.w.Payload)))
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sort.Strings(actions)
	if len(actions) > 5 {
		actions = append(actions[:5], "...")
	}
	return fmt.Sprintf("adlb: server %d: run terminated with %d dataflow rule(s) stalled on %d unfilled TD(s) %v; stalled rules: %q",
		s.idx, s.held, len(ids), ids, actions)
}

// recv returns the next message, waiting in Recv unless a deadline is
// armed; ok is false when the armed deadline came first.
func (s *server) recv() ([]byte, mpi.Status, bool, error) {
	if d, armed := s.wait(); armed {
		return s.c.RecvTimeout(mpi.AnySource, mpi.AnyTag, d)
	}
	data, st, err := s.c.Recv(mpi.AnySource, mpi.AnyTag)
	return data, st, err == nil, err
}

// wait is how long the server may block for its next message: until the
// earlier of its armed deadlines, a steal retry (pending while clients
// are parked and no steal is out) and the watchdog. armed is false when
// neither is, and the server sleeps in Recv.
func (s *server) wait() (d time.Duration, armed bool) {
	at := s.watchAt
	if len(s.parked) > 0 && !s.stealOut && !s.stealAt.IsZero() && (at.IsZero() || s.stealAt.Before(at)) {
		at = s.stealAt
	}
	if at.IsZero() {
		return 0, false
	}
	return time.Until(at), true
}

// watch keeps the hang watchdog. It is armed, WatchdogIdle after the
// last progress, only while every assigned client is parked or departed
// and the server is not draining: a mid-task client (e.g. a long-running
// leaf) may yet produce progress, and a drain ends the run on its own.
func (s *server) watch() error {
	limit := s.cfg.WatchdogIdle
	if limit == 0 {
		limit = 5 * time.Second
	}
	if s.draining || limit < 0 || len(s.parked)+s.doneCount < s.clientCount() {
		s.watchAt = time.Time{}
	} else if s.watchAt.IsZero() {
		s.watchAt = time.Now().Add(limit)
	} else if now := time.Now(); !now.Before(s.watchAt) {
		return s.checkStalled(now, limit)
	}
	return nil
}

// checkStalled runs when the watchdog expires: every assigned client is
// parked or departed and nothing has arrived for limit. If work is still
// queued (or leases are still outstanding), no TD can ever make progress
// — the demand for the queued types is gone. Abort with a diagnostic
// naming the stranded work and parked ranks instead of deadlocking.
func (s *server) checkStalled(now time.Time, limit time.Duration) error {
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
		s.watchAt = now.Add(limit)
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
	return fmt.Errorf("adlb: server %d: hang detected — no progress for %v with work stranded: "+
		"queued [%s], %d held rule(s), %d outstanding lease(s), %d unfilled TD(s); parked clients [%s], departed clients %v",
		s.idx, (now.Sub(s.watchAt) + limit).Round(time.Millisecond), strings.Join(types, "; "), s.held, len(s.leases), unfilled,
		strings.Join(parked, ", "), departed)
}

// housekeeping runs after each message and each expired wait: retries
// steals, forwards or initiates termination tokens.
func (s *server) housekeeping() {
	if len(s.parked) > 0 && !s.stealOut && (s.stealAt.IsZero() || !time.Now().Before(s.stealAt)) {
		s.maybeSteal()
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
	switch st.Tag {
	case tagRequest:
		return s.requestFrame(data, st.Source)
	case tagServer:
		// Server-to-server frames never leak aliases: work-item payloads
		// are copied at decode (they outlive frames in queues and leases).
		d := &decoder{buf: data}
		err := s.handleServer(d.u8(), d, st.Source)
		s.c.Release(data)
		return err
	}
	return fmt.Errorf("adlb: server %d: unexpected tag %d from %d", s.idx, st.Tag, st.Source)
}

// requestFrame handles one client request frame, a Get; a frame that
// starts with another opcode is a decode error. Request frames are
// recycled once handled — except for those that carry a store, whose
// decoded value bytes alias the frame (the zero-copy store: datums keep
// views into the request instead of copies), making the frame's lifetime
// the datum's. retainsRequestFrame is the one place that decides.
func (s *server) requestFrame(data []byte, client int) error {
	d := &decoder{buf: data}
	if op := d.u8(); op != opGet && d.err == nil {
		d.err = fmt.Errorf("adlb: wire decode: request opcode %d from client %d is not a Get", op, client)
	}
	decodeGet(d, &s.get)
	err := s.handleRequest(&s.get, d, client)
	if !retainsRequestFrame(&s.get) {
		s.c.Release(data)
	}
	return err
}

// retainsRequestFrame reports whether handling get stores slices that
// alias the request frame, pinning it for the life of the data store:
// one of its decoded entries is a Store or a StoreChunk. A Get that
// failed to decode has no entries and is released.
func retainsRequestFrame(get *getRequest) bool {
	for _, en := range get.entries {
		if len(en.req) > 0 && (en.req[0] == opStore || en.req[0] == opStoreChunk) {
			return true
		}
	}
	return false
}

// ---------- client RPCs ----------

// respond answers client with a reply of status st alone, or, for
// stError, with the error's text msg.
func (s *server) respond(client int, st uint8, msg string) error {
	e := encoder{c: s.c}
	e.u8(st)
	if st == stError {
		e.str(msg)
	}
	return e.send(client, tagResponse)
}

// handleRequest handles one client request, a Get; get is its decoded
// body (requestFrame decodes it to decide the frame's fate).
func (s *server) handleRequest(get *getRequest, d *decoder, client int) error {
	// Any client request is progress, which disarms the hang watchdog.
	s.watchAt = time.Time{}
	// Elastic registration: a client joins its home server's roster on
	// its first Get there, not on another server's, where its data ops
	// land too but its work and its departure never do.
	if s.known != nil && s.l.ServerOf(client) == s.c.Rank() {
		s.known[client] = true
	}
	return s.handleGet(get, d, client)
}

// applyWrite applies one write a Get carried. It returns the refusal's
// message, "" when the write applied; the datum the write closed, if
// any; and an error only for a malformed request, which ends the run.
func (s *server) applyWrite(op uint8, d *decoder) (refusal string, closed *datum, err error) {
	switch op {
	case opPut:
		refusal, err = s.applyPut(d)
		return refusal, nil, err
	case opCreate:
		id := d.i64()
		typ := DataType(d.u8())
		if err := d.finish("create request"); err != nil {
			return "", nil, err
		}
		if _, exists := s.store[id]; exists {
			return fmt.Sprintf("create: id %d already exists", id), nil, nil
		}
		dm := &datum{typ: typ}
		if typ == TypeContainer {
			dm.members = make(map[string]int64)
			dm.writeRefs = 1
		}
		s.store[id] = dm
		return "", nil, nil

	case opStore:
		id := d.i64()
		c := decodeChunk(d)
		if err := d.finish("store request"); err != nil {
			return "", nil, err
		}
		if c.Len() != 1 {
			return fmt.Sprintf("store: id %d: %d rows, want 1", id, c.Len()), nil, nil
		}
		r := c.Reader()
		r.Next()
		dm, err := s.storeValue(id, rowValue(&r))
		if err != nil {
			return err.Error(), nil, nil
		}
		return "", dm, nil

	case opInsert:
		cid := d.i64()
		sub := d.str()
		member := d.i64()
		if err := d.finish("insert request"); err != nil {
			return "", nil, err
		}
		dm, ok := s.store[cid]
		if !ok || dm.typ != TypeContainer {
			return fmt.Sprintf("insert: id %d is not a container", cid), nil, nil
		}
		if dm.closed() {
			return fmt.Sprintf("insert: container %d is closed", cid), nil, nil
		}
		if _, dup := dm.members[sub]; dup {
			return fmt.Sprintf("insert: container %d already has subscript %q", cid, sub), nil, nil
		}
		dm.members[sub] = member
		dm.order = append(dm.order, sub)
		return "", nil, nil

	case opWriteRefcount:
		id := d.i64()
		delta := int(d.i32())
		if err := d.finish("refcount request"); err != nil {
			return "", nil, err
		}
		dm, ok := s.store[id]
		if !ok {
			return fmt.Sprintf("refcount: no such id %d", id), nil, nil
		}
		if dm.typ != TypeContainer {
			return fmt.Sprintf("refcount: id %d is not a container", id), nil, nil
		}
		wasClosed := dm.closed()
		dm.writeRefs += delta
		if dm.writeRefs < 0 {
			return fmt.Sprintf("refcount: id %d dropped below zero", id), nil, nil
		}
		if !wasClosed && dm.closed() {
			return "", dm, nil
		}
		return "", nil, nil

	case opStoreChunk:
		refusal, err = s.applyStoreChunk(d)
		return refusal, nil, err
	}
	return "", nil, fmt.Errorf("adlb: unhandled write op %d", op)
}

// applyPut accepts a work item, or a rule: an item whose Inputs it must
// wait on. The client sends it to the owner of its first input (home
// otherwise), and route takes it from there.
func (s *server) applyPut(d *decoder) (refusal string, err error) {
	w := decodeWorkItem(d)
	if err := d.finish("put request"); err != nil {
		return "", err
	}
	if w.Type < 0 || w.Type >= s.cfg.Types {
		return fmt.Sprintf("put: invalid work type %d", w.Type), nil
	}
	if w.Target != AnyRank {
		if w.Target < 0 || w.Target >= s.l.Clients() {
			return fmt.Sprintf("put: invalid target rank %d", w.Target), nil
		}
		if err := faultinject.At(faultinject.SitePutTargeted); err != nil {
			return err.Error(), nil
		}
	}
	if id, ok := s.unknownID(w.Inputs); ok {
		return fmt.Sprintf("put: no such id %d", id), nil
	}
	return "", s.route(w, w.Inputs, 0)
}

// unknownID returns the first id of wait that this server owns but
// neither holds nor issued. Checking before route holds anything keeps a
// failed Put from leaving a rule behind.
func (s *server) unknownID(wait []int64) (int64, bool) {
	for _, id := range wait {
		if s.l.OwnerOf(id) != s.c.Rank() {
			continue
		}
		if _, ok := s.store[id]; !ok && !s.issued(id) {
			return id, true
		}
	}
	return 0, false
}

// route moves a rule on from wait[at]. It skips this server's closed ids
// and holds the rule on the first open one, so a repeated id is waited on
// once; notifyAll resumes it from there. With none of its ids open here,
// the rule goes, over a counted sopPutForward, to the owner of the first
// id it has yet to see closed, carrying only the ids of other owners, so
// each owner is visited once. With no id left it is work: enqueued here,
// or forwarded to its target's server.
func (s *server) route(w workItem, wait []int64, at int) error {
	me := s.c.Rank()
	for i := at; i < len(wait); i++ {
		id := wait[i]
		if s.l.OwnerOf(id) != me {
			continue
		}
		dm := s.store[id]
		if dm == nil {
			// An issued id (unknownID checked it on arrival) comes into
			// being as an open placeholder.
			dm = &datum{}
			s.store[id] = dm
		}
		if !dm.closed() {
			dm.held = append(dm.held, heldRule{w: w, wait: wait, at: i})
			s.held++
			return nil
		}
	}
	var rest []int64
	for _, id := range wait {
		if s.l.OwnerOf(id) != me {
			rest = append(rest, id)
		}
	}
	next := me
	if len(rest) > 0 {
		next = s.l.OwnerOf(rest[0])
	} else if w.Target != AnyRank {
		next = s.l.ServerOf(w.Target)
	}
	if next != me {
		if s.stats() != nil {
			s.stats().PutsForwarded.Add(1)
		}
		return s.forward(next, w, rest)
	}
	s.acceptWork(w)
	if s.stats() != nil {
		s.stats().PutsLocal.Add(1)
	}
	return nil
}

// forward sends w, still to wait on wait, to another server; counted for
// Safra, so no round can end while it is in flight.
func (s *server) forward(server int, w workItem, wait []int64) error {
	return s.sendServer(server, sopPutForward, true, func(e *encoder) {
		encodeWorkItem(e, w)
		encodeIDs(e, wait)
	})
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
	s.serve(client, req.leased, append(s.items[:0], w))
}

// serve answers a Get (parked or direct) with items, s.items' storage,
// minting a lease for each when the client asked for leases.
func (s *server) serve(client int, leased bool, items []workItem) {
	defer clear(items) // the queues and leases hold the items, not s.items
	s.items = items
	if s.stats() != nil {
		s.stats().GetsServed.Add(int64(len(items)))
	}
	if err := faultinject.At(faultinject.SiteGetDeliver); err != nil {
		if !faultinject.IsCrash(err) {
			// Requeue so the injected delivery failure loses no work, then
			// surface the fault to the requesting client.
			for _, w := range items {
				s.enqueue(w)
			}
			if rerr := s.respond(client, stError, err.Error()); rerr != nil {
				s.c.World().Abort(rerr)
			}
			return
		}
		s.c.World().Abort(err)
		return
	}
	e := encoder{c: s.c}
	size := 1 + 4
	for _, w := range items {
		size += s.itemBytes(w)
	}
	e.grow(size)
	e.u8(stOK)
	e.u32(uint32(len(items)))
	var err error
	for _, w := range items {
		it := delivered{payload: w.Payload}
		if leased {
			it.lease = s.newLease(client, w)
		}
		// inputRows reuses one buffer, so each item's rows are
		// encoded before the next item's are gathered.
		if it.rows, err = s.inputRows(w.Inputs); err != nil {
			break
		}
		it.ids = s.rowIDs
		encodeDelivered(&e, leased, &it)
	}
	if serr := e.send(client, tagResponse); err == nil {
		err = serr
	}
	if err != nil {
		s.c.World().Abort(err)
	}
}

// inputRows gathers the rows of the inputs this server holds values for,
// leaving their ids in rowIDs: the item carries them to the worker, which
// then loads none of them. Closed data never changes, so the rows are read
// at delivery, and a requeued or stolen item is served them afresh.
func (s *server) inputRows(inputs []int64) (chunk.Chunk, error) {
	s.rowIDs, s.rowVals = s.rowIDs[:0], s.rowVals[:0]
	me := s.c.Rank()
	for _, id := range inputs {
		if s.l.OwnerOf(id) != me {
			continue
		}
		if dm := s.store[id]; dm != nil && dm.set {
			s.rowIDs = append(s.rowIDs, id)
			s.rowVals = append(s.rowVals, &dm.val)
		}
	}
	return s.gather(s.rowVals)
}

// gather puts vals into one chunk. A lone string or blob is its own row,
// so its payload is copied once, onto the wire, and never into scratch,
// whose next append would then write into the datum; anything else is
// appended to the reused scratch, so a steady stream allocates nothing.
func (s *server) gather(vals []*Value) (chunk.Chunk, error) {
	if len(vals) == 1 && (vals[0].Type == TypeString || vals[0].Type == TypeBlob) {
		return row(*vals[0])
	}
	s.scratch.Reset()
	for _, v := range vals {
		if err := appendRow(&s.scratch, v); err != nil {
			return s.scratch, err
		}
	}
	return s.scratch, nil
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

// handleGet applies the Get's entries in order — each write through
// applyWrite and each read through answer, into the reply, counted as
// they apply, and each settle through settle — and then answers with
// work, or parks. A refused write skips the rest of its task's writes
// and reads, up to the next done settle, which becomes a retriable
// failure carrying the refusal; a failed or handed-back settle in
// between names another lease and leaves the refusal standing. A refusal
// no done settle follows refuses the Get, with the text a lone write's
// refusal has always had, and no read is answered. The closes the writes
// made are announced before the Get is served, so a rule they release
// can go out in its reply, or, in a Get that wants no work, after the
// reply: the writer goes on while this server delivers what they
// released, and the server handles nothing else in between, so no later
// request sees a close unannounced. A departing Get departs the client
// before its entries, so what they requeue is pinned to no one, and
// reclaims every lease left after them (depart); it is answered OK even
// while the server drains. A Get that wants no work is answered at once
// with none, or with a refusal. A leased Get served from the untargeted
// queue takes the first item and then, by guided self-scheduling, a
// share of what is left: at most maxDelivery-1 more, and at most the
// queue left over divided among the clients that have not departed, so
// each share is a fraction of what remains and a draining queue goes
// out one item a Get. The share stops short of a reply past
// maxBatchBytes: sharing saves round trips, which only small items
// notice, and a large item held behind another would wait for nothing.
// Targeted, parked and non-leased deliveries carry one item.
func (s *server) handleGet(g *getRequest, d *decoder, client int) error {
	if err := d.finish("get request"); err != nil {
		return err
	}
	typ, leased, depart := g.typ, g.flags&getFlagLeased != 0, g.flags&getFlagDepart != 0
	if depart {
		delete(s.parked, client)
		s.unpark(client)
		s.clientDeparted(client)
	}
	s.closed = s.closed[:0]
	refused, failed := "", ""
	reply := encoder{c: s.c}
	if g.want == 0 {
		reply.u8(stOK) // the Get's status, then each read's answer
	}
	for i := range g.entries {
		en := &g.entries[i]
		if en.req == nil {
			m, err := s.settle(&en.settle, refused)
			if err != nil {
				return err
			}
			if en.settle.kind == settleDone {
				refused = ""
			}
			if failed == "" {
				failed = m
			}
			continue
		}
		if refused != "" {
			continue
		}
		op := en.req[0]
		if st := s.stats(); st != nil && op != opPut && op != opUnique {
			st.countDataOp(op)
		}
		if isRead(op) {
			m, err := s.answer(op, &decoder{buf: en.req, off: 1}, &reply)
			if err != nil {
				return err
			}
			if m != "" {
				reply.u8(stError)
				reply.str(m)
			}
			continue
		}
		m, dm, err := s.applyWrite(op, &decoder{buf: en.req, off: 1})
		if err != nil {
			return err
		}
		if dm != nil {
			s.closed = append(s.closed, dm)
		}
		if m != "" {
			refused = fmt.Sprintf("adlb: %s: %s", opNames[op], m)
		}
	}
	if depart {
		if err := s.depart(client); err != nil {
			return err
		}
	}
	if refused != "" || failed != "" || g.want == 0 {
		switch {
		case refused != "":
			reply.truncate(0)
			reply.u8(stRefused)
			reply.str(refused)
		case failed != "":
			reply.truncate(0)
			reply.u8(stError)
			reply.str(failed)
		default:
			reply.u32(0)
		}
		err := reply.send(client, tagResponse)
		s.announce()
		return err
	}
	s.announce()
	if s.draining {
		s.clientDeparted(client)
		return s.respond(client, stNoMoreWork, "")
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
			s.serve(client, leased, append(s.items[:0], w))
			return nil
		}
		delete(s.targeted, k)
	}
	if q, ok := s.untargeted[typ]; ok {
		if w, ok := q.pop(); ok {
			items := append(s.items[:0], w)
			if leased {
				size := s.itemBytes(w)
				for n := min(int(g.want)-1, q.len()/s.running()); n > 0; n-- {
					w, _ := q.peek()
					if size += s.itemBytes(w); size > maxBatchBytes {
						break
					}
					q.pop()
					items = append(items, w)
				}
			}
			s.serve(client, leased, items)
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

// itemBytes bounds the bytes w takes in a Get reply (encodeDelivered):
// its lease, its payload, and the rows of the inputs this server holds,
// with their ids.
func (s *server) itemBytes(w workItem) int {
	n := 8 + 4 + len(w.Payload) + 4 + chunkBytes(chunk.Chunk{}) + 4
	for _, id := range w.Inputs {
		if dm := s.store[id]; dm != nil && dm.set {
			n += 8 + 1 + 4 + len(dm.val.Bytes) + 1 + 4 + 8*len(dm.val.Dims)
		}
	}
	return n
}

// running is how many of this server's clients have not departed (the
// Get being served is from one of them).
func (s *server) running() int {
	return max(1, s.clientCount()-s.doneCount)
}

// announce moves on the rules held on the data the last Get's writes
// closed.
func (s *server) announce() {
	for _, dm := range s.closed {
		s.notifyAll(dm)
	}
}

// settle ends the lease g names, as its kind says: the one place a
// lease ends. refused is the refusal of a write the task sent before
// its settle, "" when none was: it fails a done task retriably, or ends
// the run when no lease is left to fail; other kinds ignore it. A
// failed task is requeued, one attempt charged, or poisoned
// (requeueOrPoison), and a Fail of a lease not held — already settled,
// say — is refused. An item handed back is requeued as it was. A
// departed holder's item is reclaimed: counted, unless done, and pinned
// to no one, since the holder never Gets again.
func (s *server) settle(g *settle, refused string) (refusal string, err error) {
	le, held := s.leases[g.lease]
	delete(s.leases, g.lease)
	reason, retriable := g.reason, g.retriable
	switch {
	case g.kind == settleDone && refused == "":
		return "", nil
	case g.kind == settleDone && !held:
		return "", fmt.Errorf("adlb: server %d: a Get settling unknown lease %d carried a refused write: %s", s.idx, g.lease, refused)
	case g.kind == settleDone:
		reason, retriable = refused, true
	case !held && g.kind == settleFailed:
		return fmt.Sprintf("fail: unknown lease %d", g.lease), nil
	case !held:
		return "", nil
	}
	w := le.w
	if s.departed[le.client] {
		if st := s.stats(); st != nil && g.kind != settleDone {
			st.LeasesReclaimed.Add(1)
		}
		if w.Target == le.client {
			w.Target = AnyRank
		}
	}
	if g.kind == settleHandedBack {
		s.acceptWork(w)
		return "", nil
	}
	return "", s.requeueOrPoison(w, reason, retriable)
}

// depart reclaims every lease a departing client holds after its last
// Get's entries, in the order they were issued: each task was lost
// mid-run, so it ends as a retriable failure, charged one attempt.
func (s *server) depart(client int) error {
	var ids []int64
	for id, le := range s.leases {
		if le.client == client {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	reason := fmt.Sprintf("owning client %d departed mid-task", client)
	for _, id := range ids {
		if _, err := s.settle(&settle{lease: id, kind: settleFailed, reason: reason, retriable: true}, ""); err != nil {
			return err
		}
	}
	return nil
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
		w.Attempts+1, kind, reason, describe(w.Payload))
}

// issued reports whether this server handed id out: ids it issues are
// ≡ idx (mod Servers), from Servers+idx up to (excluding) nextID. Only
// such an id may come into being at its first Store or wait, so a
// garbage id still fails.
func (s *server) issued(id int64) bool {
	first, stride := int64(s.l.Servers+s.idx), int64(s.l.Servers)
	return id >= first && id < s.nextID && (id-first)%stride == 0
}

// ---------- data store ----------

// answer appends the answer to a read a Get carried to e: a status and
// what the read found. It returns an error's text instead, "" when the
// read found its answer, and an error only for a malformed request.
func (s *server) answer(op uint8, d *decoder, e *encoder) (msg string, err error) {
	switch op {
	case opUnique:
		count := int64(d.i32())
		if err := d.finish("unique request"); err != nil {
			return "", err
		}
		e.u8(stOK)
		e.i64(s.nextID)
		e.i32(int32(s.l.Servers)) // stride
		s.nextID += max(count, 1) * int64(s.l.Servers)

	case opLookup:
		cid := d.i64()
		sub := d.str()
		if err := d.finish("lookup request"); err != nil {
			return "", err
		}
		dm, ok := s.store[cid]
		if !ok || dm.typ != TypeContainer {
			return fmt.Sprintf("lookup: id %d is not a container", cid), nil
		}
		if m, ok := dm.members[sub]; ok {
			e.u8(stOK)
			e.i64(m)
		} else {
			e.u8(stNotFound)
		}

	case opEnumerate:
		cid := d.i64()
		if err := d.finish("enumerate request"); err != nil {
			return "", err
		}
		dm, ok := s.store[cid]
		if !ok || dm.typ != TypeContainer {
			return fmt.Sprintf("enumerate: id %d is not a container", cid), nil
		}
		e.u8(stOK)
		e.u32(uint32(len(dm.order)))
		for _, sub := range dm.order {
			e.str(sub)
			e.i64(dm.members[sub])
		}

	case opRetrieveChunk:
		// Columnar gather: all requested ids are owned here (the client
		// grouped by owner), so the whole lookup is local and the answer
		// is one chunk frame — contiguous typed columns (see gather).
		ids := decodeIDs(d, "retrieve_chunk ids")
		if err := d.finish("retrieve_chunk request"); err != nil {
			return "", err
		}
		s.rowVals = s.rowVals[:0]
		for _, id := range ids {
			dm, ok := s.store[id]
			if !ok && !s.issued(id) {
				e.u8(stNotFound)
				e.i64(id)
				return "", nil
			}
			if !ok || !dm.set {
				return fmt.Sprintf("retrieve_chunk: id %d is unset", id), nil
			}
			s.rowVals = append(s.rowVals, &dm.val)
		}
		c, err := s.gather(s.rowVals)
		if err != nil {
			return fmt.Sprintf("retrieve_chunk: %v", err), nil
		}
		e.grow(1 + chunkBytes(c) + 4) // and the reply's item count after it
		e.u8(stOK)
		encodeChunk(e, c)
	}
	return "", nil
}

// applyStoreChunk is the columnar scatter into a container: one
// owner-local closed datum per row, inserted at consecutive subscripts
// after any existing members, all or nothing. The write refcount is the
// caller's to manage, as with Insert. Row payloads alias the (retained)
// request frame and the datums come from one slab, so the per-element
// cost is the subscript string and its container map entry — no value
// copies, no boxes.
func (s *server) applyStoreChunk(d *decoder) (refusal string, err error) {
	cid := d.i64()
	c := decodeChunk(d)
	if err := d.finish("store_chunk request"); err != nil {
		return "", err
	}
	dm, ok := s.store[cid]
	if !ok || dm.typ != TypeContainer {
		return fmt.Sprintf("store_chunk: id %d is not a container", cid), nil
	}
	if dm.closed() {
		return fmt.Sprintf("store_chunk: container %d is closed", cid), nil
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
			return fmt.Sprintf("store_chunk: container %d already has subscript %q", cid, subs[i]), nil
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
	return "", nil
}

// storeValue sets id to v, whose bytes alias the retained request frame.
// An id the owner issued but nobody created comes into being here, typed
// by v; a set id, a container, a type mismatch and an id never issued are
// refused, with nothing changed. The caller announces the close.
func (s *server) storeValue(id int64, v Value) (*datum, error) {
	dm, ok := s.store[id]
	if !ok {
		if !s.issued(id) {
			return nil, fmt.Errorf("store: no such id %d", id)
		}
		dm = &datum{}
		s.store[id] = dm
	}
	if dm.typ == 0 {
		dm.typ = v.Type
	}
	if dm.set {
		return nil, fmt.Errorf("store: id %d already set (single-assignment violation)", id)
	}
	if dm.typ == TypeContainer {
		return nil, fmt.Errorf("store: id %d is a container", id)
	}
	if v.Type != dm.typ && dm.typ != TypeVoid {
		return nil, fmt.Errorf("store: id %d is %v, value is %v", id, dm.typ, v.Type)
	}
	dm.val = v
	dm.set = true
	return dm, nil
}

// notifyAll runs when a datum closes and moves on each rule held on it.
// This is how a Store on one rank releases a leaf for a worker, or a
// control rule for the engine that made it.
func (s *server) notifyAll(dm *datum) {
	held := dm.held
	dm.held = nil
	s.held -= len(held)
	for _, h := range held {
		if err := s.route(h.w, h.wait, h.at); err != nil {
			s.c.World().Abort(err)
			return
		}
	}
}

// ---------- server-to-server ----------

// sendServer sends a server-to-server message. counted marks messages that
// transfer work and therefore participate in Safra's message counting.
// Empty steal traffic is deliberately uncounted: an outstanding steal
// request already makes the requesting server non-quiet (it holds the
// token and blocks the detection round), so only work-bearing messages can
// race with a completing round. Counting empty steal chatter would instead
// livelock detection — retries would keep blackening servers forever.
func (s *server) sendServer(dest int, op uint8, counted bool, build func(*encoder)) error {
	e := encoder{c: s.c}
	e.u8(op)
	build(&e)
	if counted && e.err == nil {
		s.mcount++
	}
	return e.send(dest, tagServer)
}

func (s *server) handleServer(op uint8, d *decoder, source int) error {
	switch op {
	case sopPutForward:
		s.mcount--
		s.black = true
		s.watchAt = time.Time{}
		w := decodeWorkItem(d)
		wait := decodeIDs(d, "put-forward wait ids")
		if err := d.finish("put-forward"); err != nil {
			return err
		}
		if id, ok := s.unknownID(wait); ok {
			return fmt.Errorf("adlb: server %d: put: no such id %d (task %.200q)", s.idx, id, describe(w.Payload))
		}
		return s.route(w, wait, 0)

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
			s.watchAt = time.Time{}
			s.stealBackoff = 0
			s.stealAt = time.Time{}
			if s.stats() != nil {
				s.stats().StealHits.Add(1)
				s.stats().ItemsStolen.Add(int64(n))
			}
		} else {
			s.stealBackoff = min(max(2*s.stealBackoff, minStealBackoff), maxStealBackoff)
			s.stealAt = time.Now().Add(s.stealBackoff)
		}
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

	case sopStallReport:
		msg := d.str()
		if err := d.finish("stall report"); err != nil {
			return err
		}
		s.stalls[s.l.ServerIndex(source)] = msg
		s.reported++
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
		if err := s.sendServer(s.l.ServerRank(i), sopShutdown, false, func(*encoder) {}); err != nil {
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
		if err := s.respond(r, stNoMoreWork, ""); err != nil {
			s.c.World().Abort(err)
			return
		}
	}
	s.parkOrder = nil
}
