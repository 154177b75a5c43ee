package adlb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/chunk"
	"repro/internal/mpi"
)

// ErrStoreTwice is reported when a single-assignment datum is stored twice.
var ErrStoreTwice = errors.New("adlb: double store on single-assignment datum")

// Client is one ADLB client rank (a Turbine engine or worker). A Client is
// bound to its home server for work operations; data operations are routed
// to the owning server of each id. All calls are synchronous RPCs, which
// is essential to the termination-detection protocol: a client that is
// parked in Get has no in-flight requests.
type Client struct {
	c        *mpi.Comm
	cfg      Config
	l        Layout
	myServer int

	idNext   int64
	idStride int64
	idRemain int64

	// held is the lease id of the task currently being executed (0 when
	// none). It is settled implicitly by the next Get — completion
	// piggybacks on the request the client was about to send anyway — or
	// explicitly by Fail.
	held int64

	// Zero-copy frame pinning. Payload slices returned by Retrieve and
	// RetrieveChunk alias the response frames they were decoded from;
	// those frames stay pinned until the next call on this Client, whose
	// request must first be copied onto the wire (encode reads may
	// themselves alias a pinned frame — a retrieved blob stored straight
	// back). So frames retire at the next call's start and are released
	// to the transport's frame pool only after its Send completes.
	pinned  [][]byte // response frames backing the last call's payloads
	retired [][]byte // previous call's frames, released after the next Send
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
	return &Client{c: c, cfg: cfg, l: l, myServer: l.ServerOf(c.Rank())}, nil
}

// Rank returns the client's world rank.
func (cl *Client) Rank() int { return cl.c.Rank() }

// Layout returns the rank layout of the deployment.
func (cl *Client) Layout() Layout { return cl.l }

// Comm exposes the underlying communicator (used by higher layers for
// barriers around the run).
func (cl *Client) Comm() *mpi.Comm { return cl.c }

// rpc issues one synchronous request. It marks the previous call's
// response frames as retired — this call is the release point of any
// payload slices they back — and hands them to rpcKeep to free once the
// new request is safely on the wire.
func (cl *Client) rpc(server int, build func(*encoder)) (*decoder, error) {
	cl.retire()
	return cl.rpcKeep(server, build)
}

// rpcKeep issues a request without retiring the frames pinned by earlier
// calls in the same batched operation: RetrieveChunk fans out one RPC
// per owning server, and every per-server response must stay alive until
// the whole batch is assembled.
func (cl *Client) rpcKeep(server int, build func(*encoder)) (*decoder, error) {
	e := getEncoder()
	build(e)
	frame, err := e.frame()
	if err != nil {
		putEncoder(e)
		return nil, err
	}
	err = cl.c.Send(server, tagRequest, frame)
	putEncoder(e)
	if err != nil {
		return nil, err
	}
	// The request is copied onto the wire; nothing can reference the
	// retired frames anymore.
	cl.releaseRetired()
	data, _, err := cl.c.Recv(server, tagResponse)
	if err != nil {
		return nil, err
	}
	cl.pinned = append(cl.pinned, data)
	return &decoder{buf: data}, nil
}

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

// checkStatus consumes the status byte and translates errors.
func checkStatus(d *decoder, what string) (uint8, error) {
	st := d.u8()
	if d.err != nil {
		return st, d.err
	}
	if st == stError {
		msg := d.str()
		if d.err != nil {
			return st, d.err
		}
		return st, fmt.Errorf("adlb: %s: %s", what, msg)
	}
	return st, nil
}

// Put submits a work item. target is AnyRank for load-balanced dispatch or
// a specific client rank for targeted delivery (used for notifications and
// location-pinned tasks). Higher priority items are delivered first.
func (cl *Client) Put(workType, priority, target int, payload []byte) error {
	d, err := cl.rpc(cl.myServer, func(e *encoder) {
		e.u8(opPut)
		encodeWorkItem(e, workItem{Type: workType, Priority: priority, Target: target, Payload: payload})
	})
	if err != nil {
		return err
	}
	if _, err = checkStatus(d, "put"); err != nil {
		return err
	}
	return d.finish("put response")
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
// (Leave) with the lease outstanding has the item requeued. Only one
// lease is held at a time, matching the one-task-at-a-time worker loop.
func (cl *Client) GetLeased(workType int) (payload []byte, leaseID int64, ok bool, err error) {
	return cl.get(workType, true)
}

func (cl *Client) get(workType int, leased bool) (payload []byte, leaseID int64, ok bool, err error) {
	settle := cl.held
	d, err := cl.rpc(cl.myServer, func(e *encoder) {
		e.u8(opGet)
		e.i32(int32(workType))
		var flags uint8
		if leased {
			flags |= getFlagLeased
		}
		e.u8(flags)
		e.i64(settle)
	})
	if err != nil {
		return nil, 0, false, err
	}
	// The request reached the server, which settles before anything else.
	cl.held = 0
	st, err := checkStatus(d, "get")
	if err != nil {
		return nil, 0, false, err
	}
	if st == stNoMoreWork {
		return nil, 0, false, d.finish("get response")
	}
	if leased {
		leaseID = d.i64()
	}
	w := decodeWorkItem(d)
	if err := d.finish("get response"); err != nil {
		return nil, 0, false, err
	}
	cl.held = leaseID
	// Yield before running the task. Real MPI ranks are separate
	// processes that progress concurrently; in the simulation, ranks are
	// goroutines that may outnumber cores, and the scheduler's wakeup
	// locality otherwise lets one fast client's Get/respond ping-pong with
	// the server starve sibling ranks of CPU — it drains the whole queue
	// before they issue their first request.
	runtime.Gosched()
	return w.Payload, leaseID, true, nil
}

// Fail settles a lease as failed. Retriable failures are requeued by the
// server until the task's retry budget is exhausted; non-retriable ones
// (and budget exhaustion) poison the task, which ends the run with an
// error naming it — the caller's own error return then typically reports
// the aborted world.
func (cl *Client) Fail(leaseID int64, reason string, retriable bool) error {
	if cl.held == leaseID {
		cl.held = 0
	}
	d, err := cl.rpc(cl.myServer, func(e *encoder) {
		e.u8(opFail)
		e.i64(leaseID)
		e.str(reason)
		e.boolean(retriable)
	})
	if err != nil {
		return err
	}
	if _, err = checkStatus(d, "fail"); err != nil {
		return err
	}
	return d.finish("fail response")
}

// Leave departs the runtime: the home server reclaims any lease this
// client still holds (requeueing the work) and stops counting the client
// toward termination. It models a detected rank crash — after Leave the
// client must not issue further calls.
func (cl *Client) Leave() error {
	cl.held = 0
	d, err := cl.rpc(cl.myServer, func(e *encoder) {
		e.u8(opLeave)
	})
	if err != nil {
		return err
	}
	if _, err = checkStatus(d, "leave"); err != nil {
		return err
	}
	return d.finish("leave response")
}

// Unique returns a fresh data id. Ids are allocated in blocks from the
// client's home server so the owner of each id is that same server.
func (cl *Client) Unique() (int64, error) {
	const block = 64
	if cl.idRemain == 0 {
		d, err := cl.rpc(cl.myServer, func(e *encoder) {
			e.u8(opUnique)
			e.i32(block)
		})
		if err != nil {
			return 0, err
		}
		if _, err := checkStatus(d, "unique"); err != nil {
			return 0, err
		}
		cl.idNext = d.i64()
		cl.idStride = int64(d.i32())
		if err := d.finish("unique response"); err != nil {
			return 0, err
		}
		cl.idRemain = block
	}
	id := cl.idNext
	cl.idNext += cl.idStride
	cl.idRemain--
	return id, nil
}

// Create allocates a datum of the given type under id (id must come from
// Unique so that ownership routes correctly). Containers need it; a
// scalar does not, since its first Store or Subscribe makes it, but a
// created scalar's Store must match typ.
func (cl *Client) Create(id int64, typ DataType) error {
	d, err := cl.rpc(cl.l.OwnerOf(id), func(e *encoder) {
		e.u8(opCreate)
		e.i64(id)
		e.u8(uint8(typ))
	})
	if err != nil {
		return err
	}
	if _, err = checkStatus(d, "create"); err != nil {
		return err
	}
	return d.finish("create response")
}

// Store writes the value of a single-assignment datum, closing it and
// triggering any subscriptions. An issued id with no datum yet gets one,
// typed by v. The value travels as a one-row chunk aliasing v.Bytes, so
// its payload is copied once, onto the wire.
func (cl *Client) Store(id int64, v Value) error {
	c, err := row(v)
	if err != nil {
		return err
	}
	d, err := cl.rpc(cl.l.OwnerOf(id), func(e *encoder) {
		e.u8(opStore)
		e.i64(id)
		encodeChunk(e, c)
	})
	if err != nil {
		return err
	}
	if _, err = checkStatus(d, "store"); err != nil {
		return err
	}
	return d.finish("store response")
}

// Retrieve fetches a datum's value: a one-id retrieve_chunk. found is
// false, with a nil error, for an id its owner neither holds nor issued.
//
// Zero-copy aliasing contract: the returned value's Bytes alias the
// response frame, with no copy. The slice is valid until the next call
// on this Client returns — storing a retrieved payload right back
// (encode happens before the frame is released) is safe, but a caller
// that keeps the bytes across a later call must copy them out first.
func (cl *Client) Retrieve(id int64) (v Value, found bool, err error) {
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
// ids[i]. Ids are grouped by owning server so the whole gather costs one
// RPC per server touched — O(servers), not O(len(ids)) — and every id
// must exist and be set. Each response is a chunk frame — contiguous
// typed columns — so a million-float gather decodes to two column views
// with no per-element work at all.
//
// When one server owns every id (the common case: vpack gathers members
// created by one StoreChunk), the returned chunk's columns alias the
// response frame under the Retrieve zero-copy contract: valid until the
// next call on this Client returns. A cross-server gather is
// merged row by row into fresh buffers.
func (cl *Client) RetrieveChunk(ids []int64) (chunk.Chunk, error) {
	var out chunk.Chunk
	if len(ids) == 0 {
		return out, nil
	}
	groups := make(map[int][]int64) // owning server rank -> its ids, in request order
	for _, id := range ids {
		owner := cl.l.OwnerOf(id)
		groups[owner] = append(groups[owner], id)
	}
	cl.retire()
	readers := make(map[int]*chunk.Reader, len(groups))
	for server, owned := range groups {
		c, err := cl.retrieveFrom(server, owned)
		if err != nil {
			return out, err
		}
		if len(groups) == 1 {
			return c, nil
		}
		r := c.Reader()
		readers[server] = &r
	}
	// Merge the per-server chunks back into request order.
	for _, id := range ids {
		r := readers[cl.l.OwnerOf(id)]
		r.Next()
		v := rowValue(r)
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

// retrieveFrom is one retrieve_chunk RPC to the server owning every id,
// keeping earlier frames of the same call pinned.
func (cl *Client) retrieveFrom(server int, ids []int64) (chunk.Chunk, error) {
	var c chunk.Chunk
	d, err := cl.rpcKeep(server, func(e *encoder) {
		e.u8(opRetrieveChunk)
		e.u32(uint32(len(ids)))
		for _, id := range ids {
			e.i64(id)
		}
	})
	if err != nil {
		return c, err
	}
	st, err := checkStatus(d, "retrieve_chunk")
	if err != nil {
		return c, err
	}
	if st == stNotFound {
		missing := d.i64()
		if err := d.finish("retrieve_chunk response"); err != nil {
			return c, err
		}
		return c, noSuchID(missing)
	}
	c = decodeChunk(d)
	if err := d.finish("retrieve_chunk response"); err != nil {
		return c, err
	}
	if c.Len() != len(ids) {
		return c, fmt.Errorf("adlb: retrieve_chunk: asked for %d rows, got %d", len(ids), c.Len())
	}
	return c, nil
}

// StoreChunk appends a columnar chunk of element values to a container in
// a single RPC: the owning server creates one owner-local closed datum
// per row at consecutive integer subscripts after any existing members
// (an empty container gets 0..c.Len()-1), all or nothing. The container's
// write refcount is untouched — the caller still owns its reference and
// drops it when construction is complete, exactly as with
// element-by-element Insert.
func (cl *Client) StoreChunk(container int64, c chunk.Chunk) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("adlb: store_chunk: %w", err)
	}
	d, err := cl.rpc(cl.l.OwnerOf(container), func(e *encoder) {
		e.u8(opStoreChunk)
		e.i64(container)
		encodeChunk(e, c)
	})
	if err != nil {
		return err
	}
	if _, err = checkStatus(d, "store_chunk"); err != nil {
		return err
	}
	return d.finish("store_chunk response")
}

// Subscribe registers rank for a close notification on each of ids, and
// reports which are closed already: closed[i] means ids[i] needs no wait
// and no notification for it will be sent. The ids are grouped by owning
// server and each server is asked once — O(servers) RPCs however many
// ids — and each server's group is all-or-nothing: an id the owner
// neither holds nor issued fails the call with no subscriber registered
// on that server. An issued id with no datum yet gets an open, untyped
// one. An id given
// twice is subscribed twice.
func (cl *Client) Subscribe(rank int, ids []int64) (closed []bool, err error) {
	closed = make([]bool, len(ids))
	// One pass over ids per server rather than a map of groups: rules
	// have one to three inputs far more often than a container's worth.
	for s, left := 0, len(ids); left > 0 && s < cl.l.Servers; s++ {
		server := cl.l.ServerRank(s)
		n := 0
		for _, id := range ids {
			if cl.l.OwnerOf(id) == server {
				n++
			}
		}
		if n == 0 {
			continue
		}
		left -= n
		d, err := cl.rpc(server, func(e *encoder) {
			e.u8(opSubscribe)
			e.i32(int32(rank))
			e.u32(uint32(n))
			for _, id := range ids {
				if cl.l.OwnerOf(id) == server {
					e.i64(id)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if _, err := checkStatus(d, "subscribe"); err != nil {
			return nil, err
		}
		flags := d.bytes()
		if err := d.finish("subscribe response"); err != nil {
			return nil, err
		}
		if len(flags) != n {
			return nil, fmt.Errorf("adlb: subscribe: asked about %d ids, got %d flags", n, len(flags))
		}
		k := 0
		for i, id := range ids {
			if cl.l.OwnerOf(id) == server {
				closed[i] = flags[k] != 0
				k++
			}
		}
	}
	return closed, nil
}

// Insert adds an existing datum as a member of a container.
func (cl *Client) Insert(container int64, subscript string, member int64) error {
	d, err := cl.rpc(cl.l.OwnerOf(container), func(e *encoder) {
		e.u8(opInsert)
		e.i64(container)
		e.str(subscript)
		e.i64(member)
	})
	if err != nil {
		return err
	}
	if _, err = checkStatus(d, "insert"); err != nil {
		return err
	}
	return d.finish("insert response")
}

// Lookup finds the member id at a subscript; exists is false if the
// container has no member there.
func (cl *Client) Lookup(container int64, subscript string) (member int64, exists bool, err error) {
	d, err := cl.rpc(cl.l.OwnerOf(container), func(e *encoder) {
		e.u8(opLookup)
		e.i64(container)
		e.str(subscript)
	})
	if err != nil {
		return 0, false, err
	}
	st, err := checkStatus(d, "lookup")
	if err != nil {
		return 0, false, err
	}
	if st == stNotFound {
		return 0, false, d.finish("lookup response")
	}
	member = d.i64()
	return member, true, d.finish("lookup response")
}

// Enumerate lists a container's members in insertion order.
func (cl *Client) Enumerate(container int64) ([]Pair, error) {
	d, err := cl.rpc(cl.l.OwnerOf(container), func(e *encoder) {
		e.u8(opEnumerate)
		e.i64(container)
	})
	if err != nil {
		return nil, err
	}
	if _, err := checkStatus(d, "enumerate"); err != nil {
		return nil, err
	}
	pairs := decodePairs(d)
	if err := d.finish("enumerate response"); err != nil {
		return nil, err
	}
	return pairs, nil
}

// WriteRefcount adjusts a container's write refcount. The container closes
// (and notifies subscribers) when the count reaches zero.
func (cl *Client) WriteRefcount(id int64, delta int) error {
	d, err := cl.rpc(cl.l.OwnerOf(id), func(e *encoder) {
		e.u8(opWriteRefcount)
		e.i64(id)
		e.i32(int32(delta))
	})
	if err != nil {
		return err
	}
	if _, err = checkStatus(d, "refcount"); err != nil {
		return err
	}
	return d.finish("refcount response")
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
