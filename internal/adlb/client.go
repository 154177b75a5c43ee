package adlb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/chunk"
	"repro/internal/mpi"
)

// Client is one ADLB client rank (a Turbine engine or worker). A Client is
// bound to its home server for work operations; data operations are routed
// to the owning server of each id. Every request is an entry of a Get. A
// write — Put, Create, Store, Insert, WriteRefcount, StoreChunk: a request
// whose reply is only a status — is one-way: one for the home server joins
// the entries of the next Get there, beside the settles of the leased tasks
// that ended, and one for another server joins the writes pending for it,
// which go out as a Get that wants nothing. A read — Lookup, Enumerate,
// Retrieve, RetrieveChunk, Unique — joins them too, and they go at once,
// its answer in their reply. Pending writes go out, and the reply is
// awaited, at maxBatch writes or maxBatchBytes, before a write that would
// take them past maxBatchBytes, before a write or a read for another server
// (so writes keep program order across servers), and at Flush; the home
// entries also go with every Get that asks for work. So a client never
// blocks with a write unsent or unanswered, which is essential to the
// termination-detection protocol: a client that is parked in Get has no
// in-flight requests, and a client holding items is not parked. A lease
// ends one way, by a settle a Get carries, so Fail is a Get that only
// carries entries and Leave a Get that departs.
type Client struct {
	c        *mpi.Comm
	cfg      Config
	l        Layout
	myServer int

	idNext   int64
	idStride int64
	idRemain int64

	// lease is the lease id of the task currently being executed (0 when
	// none). Its settle joins the next Get's entries as the task ends —
	// completion piggybacks on a request the client sends anyway — unless
	// Fail or Leave ends it otherwise.
	lease int64
	// home is the next Get to the home server and away the writes for one
	// other server. mark is where the running task's entries begin in
	// home: Fail and Leave drop what follows, so a task that did not
	// finish leaves its outputs open for its re-run. wrote is set when
	// the running task sent writes: its settle reaches the server before
	// another held item starts, so a client lost after that leaves no
	// finished task's writes to collide with a re-run.
	home, away pending
	mark       struct{ size, n, writes int }
	wrote      bool

	// items are the work items of the last Get reply that brought work,
	// of type itemType; those from next on are held, handed out one per
	// GetLeased with no RPC. Their payloads and rows alias deliv, the
	// reply's frame, which is retired by the next Get that asks for work
	// and released once that Get is on the wire.
	items    []delivered
	next     int
	itemType int
	deliv    []byte

	// Zero-copy frame pinning. Payload slices returned by Retrieve and
	// RetrieveChunk alias the reply frames they were decoded from; those
	// frames stay pinned until the next read or Get on this Client, which
	// retires them as it starts (a write may alias one — a retrieved blob
	// stored straight back — until it has copied it into the entries).
	// Retired frames go back to the pool once the next request is on the
	// wire, so a stale view never aliases a request a server is reading.
	pinned  [][]byte // reply frames backing the last call's payloads
	retired [][]byte // previous call's frames, released after the next Send

	// item holds the input rows that came with the running task's work
	// item, which Retrieve and RetrieveChunk serve with no RPC.
	item item
}

// pending is a Get being built for server, in the frame it travels in:
// room for the opcode and head, which the send fills in, then n entries,
// each copying its bytes, so nothing an entry aliased need outlive the
// call that made it. writes counts the writes among them, and put is set
// when one is a Put. e holds no frame when nothing is pending.
type pending struct {
	e      encoder
	server int
	n      int
	writes int
	put    bool
}

// open returns p's encoder, with room for the head and n more bytes.
// A frame drawn here has room for a settle besides, so the settle that
// follows a leased task's result does not move the frame.
func (p *pending) open(n int) *encoder {
	e := &p.e
	if e.size() == 0 {
		e.grow(getHeadBytes + n + entryBytes)
		e.reserve(getHeadBytes)
	}
	e.grow(n)
	return e
}

// maxBatch is the most writes one frame carries. On swiftbench's
// ensemble_small (one engine, 6 writes per 3 leaves; 2 cores), 64 and
// 256 read the same work_per_s within noise, about 95k a second against
// 64k with one round trip per write, and 128 no better, so the smaller
// frame (see CHANGES.md).
const maxBatch = 64

// maxBatchBytes bounds a frame of several writes: a write whose value
// bytes would take the pending writes past it goes in a frame of its
// own, and writes past it go out at once, or, for a running task's home
// writes, as the task ends. Batching saves round trips, which only small
// writes notice, and the bound keeps a frame far under
// mpi.MaxFrameBody, so a write that fits a frame alone still does.
const maxBatchBytes = 1 << 20

// item is the rows a delivered work item carried: the values of the
// inputs its server owns. They alias the Get reply frame (Client.deliv).
type item struct {
	ids   []int64 // row i holds ids[i]
	rows  chunk.Chunk
	vals  []Value       // rows as values, made at first use out of order
	index map[int64]int // id -> row, made at first lookup in a long list
}

// endTask ends the running task as a Get begins: a leased task's settle
// joins the next Get's entries — done, or failed retriably with err, the
// refusal of the task's writes to another server — and the task's rows
// go. The rows' frame stays: the held items alias it too.
func (cl *Client) endTask(err error) {
	if cl.lease != 0 {
		st := settle{lease: cl.lease}
		if err != nil {
			st.kind, st.reason, st.retriable = settleFailed, err.Error(), true
		}
		cl.addSettle(&st)
	}
	cl.lease = 0
	cl.item = item{vals: cl.item.vals[:0]}
}

// abandon ends the running task as Fail or Leave does, with no settle:
// its writes still pending are dropped — those after the mark in home,
// and all of away, which get sent before the task started — and its
// rows go.
func (cl *Client) abandon() {
	h, a := &cl.home, &cl.away
	h.e.truncate(cl.mark.size)
	h.n, h.writes, h.put = cl.mark.n, cl.mark.writes, false
	a.e.truncate(0)
	a.n, a.writes, a.put = 0, 0, false
	cl.lease, cl.item = 0, item{vals: cl.item.vals[:0]}
}

// addSettle appends st to the next Get's entries.
func (cl *Client) addSettle(st *settle) {
	encodeSettle(cl.home.open(entryBytes+len(st.reason)), st)
	cl.home.n++
}

// at returns the row holding id: a leaf's few inputs are scanned, a
// gather's members indexed once.
func (it *item) at(id int64) (int, bool) {
	if len(it.ids) <= 8 {
		for i, x := range it.ids {
			if x == id {
				return i, true
			}
		}
		return 0, false
	}
	if it.index == nil {
		it.index = make(map[int64]int, len(it.ids))
		for i := len(it.ids) - 1; i >= 0; i-- {
			it.index[it.ids[i]] = i
		}
	}
	i, ok := it.index[id]
	return i, ok
}

// value returns row i as a Value aliasing the frame.
func (it *item) value(i int) Value {
	if len(it.vals) == 0 {
		r := it.rows.Reader()
		for r.Next() {
			it.vals = append(it.vals, rowValue(&r))
		}
	}
	return it.vals[i]
}

// NewClient wraps the calling rank as an ADLB client.
func NewClient(c *mpi.Comm, cfg Config) (*Client, error) {
	if err := cfg.Validate(c.Size()); err != nil {
		return nil, err
	}
	l := NewLayout(c.Size(), cfg.Servers)
	if l.IsServer(c.Rank()) {
		return nil, fmt.Errorf("adlb: NewClient called on server rank %d", c.Rank())
	}
	cl := &Client{c: c, cfg: cfg, l: l, myServer: l.ServerOf(c.Rank())}
	cl.home.server = cl.myServer
	cl.home.e.c, cl.away.e.c = c, c
	return cl, nil
}

// Rank returns the client's world rank.
func (cl *Client) Rank() int { return cl.c.Rank() }

// Layout returns the rank layout of the deployment.
func (cl *Client) Layout() Layout { return cl.l }

// Comm exposes the underlying communicator (used by higher layers for
// barriers around the run).
func (cl *Client) Comm() *mpi.Comm { return cl.c }

func (cl *Client) retire() {
	cl.retired = append(cl.retired, cl.pinned...)
	cl.pinned = cl.pinned[:0]
}

func (cl *Client) releaseRetired() {
	for i, f := range cl.retired {
		cl.c.Release(f)
		cl.retired[i] = nil
	}
	cl.retired = cl.retired[:0]
}

// pendingFor returns the entries a request for server joins, home's or
// away's, once the writes pending for another server have gone, so
// writes keep program order across servers.
func (cl *Client) pendingFor(server int) (*pending, error) {
	p, other := &cl.home, &cl.away
	if server != cl.myServer {
		p, other = other, p
	}
	if err := cl.sendWrites(other); err != nil {
		return nil, err
	}
	if p.server != server {
		if err := cl.sendWrites(p); err != nil {
			return nil, err
		}
		p.server = server
	}
	return p, nil
}

// add appends an entry to p: op and the body body builds, whose value
// bytes are about size, so the frame grows once for them. An encoding
// error leaves p with the entries before this one.
func (p *pending) add(op uint8, size int, body func(*encoder)) error {
	e := p.open(entryBytes + size)
	at := e.begin()
	e.u8(op)
	body(e)
	if err := e.end(at); err != nil {
		return err
	}
	p.n++
	return nil
}

// write queues one write for server: op and the body body builds, whose
// value bytes are about size. The pending writes for server go out
// first when size would take them past maxBatchBytes; after this write
// they go out when they are maxBatch writes or past maxBatchBytes — but
// a running task's home writes past it wait for the task's end (see
// get), where its result rides. Its error is an encoding error, or a
// refusal the sending of writes brought back. The write's value bytes
// are copied here, so they may change as soon as write returns.
func (cl *Client) write(server int, op uint8, size int, body func(*encoder)) error {
	p, err := cl.pendingFor(server)
	if err != nil {
		return err
	}
	if p.writes > 0 && p.e.size()+size > maxBatchBytes {
		if err := cl.send(p, 0, "get", nil); err != nil {
			return err
		}
	}
	if err := p.add(op, size, body); err != nil {
		return err
	}
	p.writes++
	p.put = p.put || op == opPut
	if p.writes == maxBatch || p.e.size() > maxBatchBytes && (p == &cl.away || cl.lease == 0) {
		return cl.send(p, 0, "get", nil)
	}
	return nil
}

// ask sends a read of server — op and the body body builds, of about
// size bytes beyond its fixed fields — as the last entry of a Get that
// wants nothing, behind the entries pending for server, and decodes its
// answer with answer (see send).
func (cl *Client) ask(server int, op uint8, size int, body func(*encoder), answer func(d *decoder, st uint8) (keep bool)) error {
	p, err := cl.pendingFor(server)
	if err != nil {
		return err
	}
	if err := p.add(op, size, body); err != nil {
		return err
	}
	return cl.send(p, 0, opNames[op], answer)
}

// entryBytes bounds what an entry takes in a Get beyond its value
// bytes: its length prefix, its kind byte and its fixed fields.
const entryBytes = 32

// Flush sends the pending entries, if any, as Gets that want nothing —
// the writes for another server, then the home server's writes and
// settles — and waits for their replies: nil when every write applied,
// or a refused write's error, with the text a lone write's refusal has
// always had. The server applies the entries in order and stops at a
// refusal with no settle after it, so the writes before it are applied
// and those after it are not. A caller whose next move is to wait on
// something other than this client — an engine ending a control action,
// a gateway waiting on a channel — calls Flush, which is also where its
// writes' refusals surface.
func (cl *Client) Flush() error {
	if err := cl.sendWrites(&cl.away); err != nil {
		return err
	}
	if cl.home.n == 0 {
		return nil
	}
	return cl.send(&cl.home, 0, "get", nil)
}

// sendWrites sends p if it holds writes.
func (cl *Client) sendWrites(p *pending) error {
	if p.writes == 0 {
		return nil
	}
	return cl.send(p, 0, "get", nil)
}

// send sends p to its server as a Get that wants nothing, with flags,
// and reads the reply, which brings no items: OK, or a refusal, what
// naming the request in one that is not a write's. When p ends in a
// read, answer decodes its answer, given its status, checked, and says
// whether to keep the reply's frame pinned, for what it decoded: the
// frame is released otherwise.
func (cl *Client) send(p *pending, flags uint8, what string, answer func(d *decoder, st uint8) (keep bool)) error {
	d, _, err := cl.exchange(p, 0, flags, 0, what, answer != nil)
	if err != nil {
		return err
	}
	keep := false
	if answer != nil {
		var st uint8
		if st, err = checkStatus(d, what); err == nil {
			keep = answer(d, st)
		}
	}
	if err == nil {
		decodeDelivery(d, false, 0, nil)
		err = d.finish("get response")
	}
	if keep && err == nil {
		cl.pinned = append(cl.pinned, d.buf)
	} else {
		cl.c.Release(d.buf)
	}
	return err
}

// exchange sends p to its server as a Get of type typ, with flags,
// wanting want items, and returns a decoder past the reply's status,
// checked, what naming the request in an error's text; the caller
// releases the reply's frame, d.buf, or keeps it. release is set for the
// last request of a read or a Get call: the frames the call retired go
// back to the pool once it is on the wire, so the reply may reuse one.
func (cl *Client) exchange(p *pending, typ int, flags uint8, want int, what string, release bool) (*decoder, uint8, error) {
	err := p.seal(typ, flags, want).send(p.server, tagRequest)
	cl.sent(p)
	if err != nil {
		return nil, 0, err
	}
	if release {
		cl.releaseRetired()
	}
	data, _, err := cl.c.Recv(p.server, tagResponse)
	if err != nil {
		return nil, 0, err
	}
	d := &decoder{buf: data}
	st, err := checkStatus(d, what)
	if err != nil {
		cl.c.Release(data)
		return nil, st, err
	}
	return d, st, nil
}

// seal fills in p's opcode and head, a Get of type typ, with flags,
// wanting want items, and returns its encoder.
func (p *pending) seal(typ int, flags uint8, want int) *encoder {
	e := p.open(0)
	h := e.patch(0, getHeadBytes)
	h.u8(opGet)
	encodeGetHead(&h, typ, flags, uint8(want), p.n)
	return e
}

// sent empties p once it is on the wire, noting that the running task
// sent writes if p held any of its own: in home, those after the mark.
func (cl *Client) sent(p *pending) {
	own := p.writes
	if p == &cl.home {
		own -= cl.mark.writes
		cl.mark.size, cl.mark.n, cl.mark.writes = 0, 0, 0
	}
	if cl.lease != 0 && own > 0 {
		cl.wrote = true
	}
	p.n, p.writes, p.put = 0, 0, false
}

// checkStatus consumes the status byte and translates errors.
func checkStatus(d *decoder, what string) (uint8, error) {
	st := d.u8()
	if d.err != nil {
		return st, d.err
	}
	if st == stError || st == stRefused {
		msg := d.str()
		if d.err != nil {
			return st, d.err
		}
		if st == stRefused {
			return st, errors.New(msg)
		}
		return st, fmt.Errorf("adlb: %s: %s", what, msg)
	}
	return st, nil
}

// Put submits a work item. target is AnyRank for load-balanced dispatch or
// a specific client rank for targeted delivery (used for control rules and
// location-pinned tasks). Higher priority items are delivered first.
//
// With wait ids the item is a rule: it goes to the owner of wait[0],
// and the servers hold it until every id has closed (a scalar stored, a
// container's write refcount at zero), then queue it. The server that
// delivers it sends the values of the ids it owns along with it, for
// Retrieve and RetrieveChunk to serve. An id its owner neither holds nor
// issued fails the Put if that owner is wait[0]'s, and the run if not.
// A Put is a write: it goes out with the entries it joins (see Client),
// and its refusal comes back from the call that sends them.
func (cl *Client) Put(workType, priority, target int, payload []byte, wait ...int64) error {
	server := cl.myServer
	if len(wait) > 0 {
		server = cl.l.OwnerOf(wait[0])
	}
	return cl.write(server, opPut, len(payload)+8*len(wait), func(e *encoder) {
		encodeWorkItem(e, workItem{Type: workType, Priority: priority, Target: target, Payload: payload, Inputs: wait})
	})
}

// Get blocks until a work item of the requested type is available, and
// returns its payload. ok is false when the runtime has terminated and no
// more work will ever arrive.
func (cl *Client) Get(workType int) (payload []byte, ok bool, err error) {
	payload, _, ok, err = cl.get(workType, false)
	return payload, ok, err
}

// GetLeased is Get with fault tolerance: the returned item is tracked by
// the home server under leaseID until the client settles it — implicitly
// by its next Get (success) or explicitly by Fail. A client that departs
// (Leave) with the lease outstanding has the item requeued, charged one
// attempt.
//
// One reply may bring up to maxDelivery items, the client's share of
// the queue (see the package doc). The client holds the rest and hands
// them out one per call, with no RPC; the settles of the tasks they run,
// and the writes they made for the home server, ride the next Get that
// goes to the server. The home entries go first, in a Get that wants
// nothing, when the task that ended queued a Put (its waiters should
// not wait on the next task), sent writes, or left the entries past
// maxBatchBytes. Until every held item is handed out, a GetLeased must
// ask for their type and a Get is refused.
func (cl *Client) GetLeased(workType int) (payload []byte, leaseID int64, ok bool, err error) {
	return cl.get(workType, true)
}

// get is Get and GetLeased. The ended task's writes for another server
// go out first — a refusal there fails the task, retriably — and its
// settle joins the home entries (endTask). A held item is handed out
// then, after the entries if GetLeased says they go; with none held the
// Get goes to the server with the entries, wanting up to maxDelivery
// items when leased and one otherwise.
func (cl *Client) get(workType int, leased bool) (payload []byte, leaseID int64, ok bool, err error) {
	err = cl.sendWrites(&cl.away)
	if err != nil && cl.lease == 0 {
		return nil, 0, false, err
	}
	cl.endTask(err)
	if cl.next < len(cl.items) {
		if !leased || workType != cl.itemType {
			return nil, 0, false, fmt.Errorf("adlb: get: asked for type %d while holding %d leased item(s) of type %d",
				workType, len(cl.items)-cl.next, cl.itemType)
		}
		if cl.wrote || cl.home.put || cl.home.e.size() > maxBatchBytes {
			if err := cl.send(&cl.home, 0, "get", nil); err != nil {
				return nil, 0, false, err
			}
		}
		payload, leaseID = cl.handOut()
		return payload, leaseID, true, nil
	}
	want, flags := 1, uint8(0)
	if leased {
		want, flags = maxDelivery, getFlagLeased
	}
	cl.retire()
	cl.retireItems()
	d, st, err := cl.exchange(&cl.home, workType, flags, want, "get", true)
	if err != nil {
		return nil, 0, false, err
	}
	if st != stNoMoreWork {
		// The items outlive this call: the frame is kept for them.
		cl.items, cl.deliv = decodeDelivery(d, leased, want, cl.items), d.buf
	}
	if err := d.finish("get response"); err != nil || st == stNoMoreWork {
		cl.items, cl.deliv = cl.items[:0], nil
		cl.c.Release(d.buf)
		return nil, 0, false, err
	}
	cl.next, cl.itemType = 0, workType
	payload, leaseID = cl.handOut()
	// Yield before running the task. Real MPI ranks are separate
	// processes that progress concurrently; in the simulation, ranks are
	// goroutines that may outnumber cores, and the scheduler's wakeup
	// locality otherwise lets one fast client's Get/respond ping-pong with
	// the server starve sibling ranks of CPU — it drains the whole queue
	// before they issue their first request.
	runtime.Gosched()
	return payload, leaseID, true, nil
}

// retireItems forgets the last reply's items and retires its frame,
// which goes back to the pool once the next request is on the wire.
func (cl *Client) retireItems() {
	if cl.deliv != nil {
		cl.retired = append(cl.retired, cl.deliv)
	}
	cl.deliv, cl.items, cl.next = nil, cl.items[:0], 0
}

// handOut makes the next held item the running task, its entries
// starting at the end of home, and returns its payload, copied, and
// lease.
func (cl *Client) handOut() ([]byte, int64) {
	it := &cl.items[cl.next]
	cl.next++
	cl.lease, cl.wrote = it.lease, false
	cl.mark.size, cl.mark.n, cl.mark.writes = cl.home.e.size(), cl.home.n, cl.home.writes
	cl.item.ids, cl.item.rows = it.ids, it.rows
	return append([]byte(nil), it.payload...), it.lease
}

// Fail settles a lease as failed. Retriable failures are requeued by the
// server until the task's retry budget is exhausted; non-retriable ones
// (and budget exhaustion) poison the task, which ends the run with an
// error naming it — the caller's own error return then typically reports
// the aborted world. The failed settle goes at once, in a Get that
// wants nothing, behind the home entries of the tasks that ended before
// it: one request frame. A failed running task's writes still pending
// are dropped, so its outputs stay open for the re-run; held items stay
// held. A Fail of another lease sends the writes pending for another
// server first, and returns their refusal once the settle has gone. A
// lease already ended is refused as unknown, so a lease settles at most
// once.
func (cl *Client) Fail(leaseID int64, reason string, retriable bool) error {
	var refused error
	if cl.lease == leaseID {
		cl.abandon()
	} else {
		refused = cl.sendWrites(&cl.away)
	}
	cl.addSettle(&settle{lease: leaseID, kind: settleFailed, reason: reason, retriable: retriable})
	if err := cl.send(&cl.home, 0, "fail", nil); err != nil {
		return err
	}
	return refused
}

// Leave departs the runtime: it sends one Get that departs, carrying
// the home entries — every ended task's writes and settle — and handing
// back each held item never started, which the server requeues with no
// attempt charged. The server reclaims the lease of the task this client
// is running, charged one attempt, and stops counting the client toward
// termination. It models a detected rank crash — after Leave the client
// must not issue further calls. The running task's writes still pending
// die with the client: the requeued task's re-run makes them. With no
// task running, the writes pending for another server go first, and
// their refusal is returned once the client has departed.
func (cl *Client) Leave() error {
	var refused error
	if cl.lease != 0 {
		cl.abandon()
	} else {
		refused = cl.sendWrites(&cl.away)
	}
	for _, it := range cl.items[cl.next:] {
		cl.addSettle(&settle{lease: it.lease, kind: settleHandedBack})
	}
	cl.retireItems()
	if err := cl.send(&cl.home, getFlagDepart, "leave", nil); err != nil {
		return err
	}
	return refused
}

// idBlock is how many ids one Unique round trip fetches. The round trip
// carries the home entries pending, so it splits no write batch, but
// each block costs one: at 64 ids, Unique's round trips (then frames of
// their own) were 18 of the 45 request frames an engine sent on the
// ensemble shape at n = 200; at 1024 it sends 27 in all.
const idBlock = 1024

// Unique returns a fresh data id. Ids are allocated in blocks from the
// client's home server so the owner of each id is that same server.
func (cl *Client) Unique() (int64, error) {
	if cl.idRemain == 0 {
		cl.retire()
		err := cl.ask(cl.myServer, opUnique, 0, func(e *encoder) { e.i32(idBlock) }, func(d *decoder, _ uint8) bool {
			cl.idNext, cl.idStride = d.i64(), int64(d.i32())
			return false
		})
		if err != nil {
			return 0, err
		}
		cl.idRemain = idBlock
	}
	id := cl.idNext
	cl.idNext += cl.idStride
	cl.idRemain--
	return id, nil
}

// Create allocates a datum of the given type under id (id must come from
// Unique so that ownership routes correctly). Containers need it; a
// scalar does not, since its first Store or wait makes it, but a
// created scalar's Store must match typ.
func (cl *Client) Create(id int64, typ DataType) error {
	return cl.write(cl.l.OwnerOf(id), opCreate, 0, func(e *encoder) {
		e.i64(id)
		e.u8(uint8(typ))
	})
}

// Store writes the value of a single-assignment datum, closing it and
// releasing the rules held on it. An issued id with no datum yet gets one,
// typed by v. The value travels as a one-row chunk aliasing v.Bytes, so
// its payload is copied once, into the write's frame. Create, Store,
// Insert, WriteRefcount and StoreChunk are writes, like Put.
func (cl *Client) Store(id int64, v Value) error {
	c, err := row(v)
	if err != nil {
		return err
	}
	return cl.write(cl.l.OwnerOf(id), opStore, chunkBytes(c), func(e *encoder) {
		e.i64(id)
		encodeChunk(e, c)
	})
}

// Retrieve fetches a datum's value: from the current item's rows, or a
// one-id retrieve_chunk read. found is false, with a nil error, for an id its
// owner neither holds nor issued.
//
// Zero-copy aliasing contract: the returned value's Bytes alias the
// response frame, with no copy. The slice is valid until the next call
// on this Client returns — storing a retrieved payload right back
// (encode happens before the frame is released) is safe, but a caller
// that keeps the bytes across a later call must copy them out first. A
// value read from the item's rows lives longer: until the next Get, Fail
// or Leave.
func (cl *Client) Retrieve(id int64) (v Value, found bool, err error) {
	if i, ok := cl.item.at(id); ok {
		return cl.item.value(i), true, nil
	}
	cl.retire()
	c, err := cl.retrieveFrom(cl.l.OwnerOf(id), []int64{id})
	if _, missing := err.(noSuchID); missing {
		return Value{}, false, nil
	}
	if err != nil {
		return Value{}, false, err
	}
	r := c.Reader()
	r.Next()
	return rowValue(&r), true, nil
}

// RetrieveChunk fetches many closed data as one columnar chunk: row i is
// ids[i]. Ids among the current item's rows cost nothing; the rest are
// grouped by owning server so the whole gather costs one read per server
// touched — O(servers), not O(len(ids)) — and every id must exist and be
// set. Each answer is a chunk frame — contiguous typed columns — so a
// million-float gather decodes to two column views with no per-element
// work at all.
//
// When the item's rows are exactly ids, or one server owns every id (the
// common case: vpack gathers members created by one StoreChunk), the
// returned chunk's columns alias the frame, under the Retrieve zero-copy
// contract. A gather from several sources is merged row by row into
// fresh buffers.
func (cl *Client) RetrieveChunk(ids []int64) (chunk.Chunk, error) {
	var out chunk.Chunk
	if len(ids) == 0 {
		return out, nil
	}
	if slices.Equal(ids, cl.item.ids) {
		return cl.item.rows, nil
	}
	groups := make(map[int][]int64) // owning server rank -> its ids, in request order
	for _, id := range ids {
		if _, ok := cl.item.at(id); !ok {
			owner := cl.l.OwnerOf(id)
			groups[owner] = append(groups[owner], id)
		}
	}
	cl.retire()
	readers := make(map[int]*chunk.Reader, len(groups))
	for server, owned := range groups {
		c, err := cl.retrieveFrom(server, owned)
		if err != nil {
			return out, err
		}
		if len(owned) == len(ids) {
			return c, nil
		}
		r := c.Reader()
		readers[server] = &r
	}
	// Merge the item's rows and the per-server chunks into request order.
	for _, id := range ids {
		var v Value
		if i, ok := cl.item.at(id); ok {
			v = cl.item.value(i)
		} else {
			r := readers[cl.l.OwnerOf(id)]
			r.Next()
			v = rowValue(r)
		}
		if err := appendRow(&out, &v); err != nil {
			return out, err
		}
	}
	return out, nil
}

// noSuchID is retrieve_chunk's not-found reply: the id its owner neither
// holds nor issued.
type noSuchID int64

func (id noSuchID) Error() string {
	return fmt.Sprintf("adlb: retrieve_chunk: no such id %d", int64(id))
}

// retrieveFrom is one retrieve_chunk read of the server owning every id.
// Its reply stays pinned beside those of earlier reads in the same call.
func (cl *Client) retrieveFrom(server int, ids []int64) (chunk.Chunk, error) {
	var c chunk.Chunk
	var missing error
	err := cl.ask(server, opRetrieveChunk, 8*len(ids), func(e *encoder) { encodeIDs(e, ids) }, func(d *decoder, st uint8) bool {
		if st == stNotFound {
			missing = noSuchID(d.i64())
			return false
		}
		c = decodeChunk(d)
		return true
	})
	if err != nil {
		return c, err
	}
	if missing != nil {
		return c, missing
	}
	if c.Len() != len(ids) {
		return c, fmt.Errorf("adlb: retrieve_chunk: asked for %d rows, got %d", len(ids), c.Len())
	}
	return c, nil
}

// StoreChunk appends a columnar chunk of element values to a container in
// a single write: the owning server creates one owner-local closed datum
// per row at consecutive integer subscripts after any existing members
// (an empty container gets 0..c.Len()-1), all or nothing. The container's
// write refcount is untouched — the caller still owns its reference and
// drops it when construction is complete, exactly as with
// element-by-element Insert.
func (cl *Client) StoreChunk(container int64, c chunk.Chunk) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("adlb: store_chunk: %w", err)
	}
	return cl.write(cl.l.OwnerOf(container), opStoreChunk, chunkBytes(c), func(e *encoder) {
		e.i64(container)
		encodeChunk(e, c)
	})
}

// Insert adds an existing datum as a member of a container.
func (cl *Client) Insert(container int64, subscript string, member int64) error {
	return cl.write(cl.l.OwnerOf(container), opInsert, len(subscript), func(e *encoder) {
		e.i64(container)
		e.str(subscript)
		e.i64(member)
	})
}

// Lookup finds the member id at a subscript; exists is false if the
// container has no member there.
func (cl *Client) Lookup(container int64, subscript string) (member int64, exists bool, err error) {
	cl.retire()
	err = cl.ask(cl.l.OwnerOf(container), opLookup, len(subscript), func(e *encoder) {
		e.i64(container)
		e.str(subscript)
	}, func(d *decoder, st uint8) bool {
		if exists = st == stOK; exists {
			member = d.i64()
		}
		return false
	})
	return member, exists, err
}

// Enumerate lists a container's members in insertion order.
func (cl *Client) Enumerate(container int64) ([]Pair, error) {
	cl.retire()
	var pairs []Pair
	err := cl.ask(cl.l.OwnerOf(container), opEnumerate, 0, func(e *encoder) { e.i64(container) }, func(d *decoder, _ uint8) bool {
		pairs = decodePairs(d)
		return false
	})
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// WriteRefcount adjusts a container's write refcount. The container closes
// (and releases the rules held on it) when the count reaches zero.
func (cl *Client) WriteRefcount(id int64, delta int) error {
	return cl.write(cl.l.OwnerOf(id), opWriteRefcount, 0, func(e *encoder) {
		e.i64(id)
		e.i32(int32(delta))
	})
}

// ---- typed value helpers ----

// IntValue encodes an int64 as a store value.
func IntValue(v int64) Value {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return Value{Type: TypeInteger, Bytes: b[:]}
}

// FloatValue encodes a float64 as a store value.
func FloatValue(v float64) Value {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return Value{Type: TypeFloat, Bytes: b[:]}
}

// StringValue encodes a string as a store value.
func StringValue(v string) Value { return Value{Type: TypeString, Bytes: []byte(v)} }

// BlobValue wraps raw bytes as a blob store value.
func BlobValue(v []byte) Value { return Value{Type: TypeBlob, Bytes: v} }

// VoidValue is the value stored into void (signal-only) data.
func VoidValue() Value { return Value{Type: TypeVoid} }
