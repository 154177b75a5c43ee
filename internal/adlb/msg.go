package adlb

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/chunk"
)

// Message tags used on the simulated MPI transport. Every client request
// is a Get and travels on tagRequest; each client has at most one
// outstanding request frame, so a single tagResponse suffices for
// replies.
// Server-to-server traffic uses dedicated tags so that a server's main
// loop can receive with wildcards and dispatch on the tag.
const (
	tagRequest  = 1 // client -> server request: a Get
	tagResponse = 2 // server -> client reply
	tagServer   = 3 // server -> server control (steal, forward, token)
)

// Request opcodes. Every request frame starts with opGet; each other
// opcode is an entry's kind byte (see getRequest): a write, or a read
// (isRead), which gets an answer in the Get's reply.
const (
	opPut uint8 = iota + 1
	opGet
	opCreate
	opStore // id + one-row chunk
	opInsert
	opLookup
	opEnumerate
	opWriteRefcount
	opUnique
	// Columnar data-plane ops: the container<->vector bridge costs
	// O(servers) requests, not O(elements), and each carries one chunk
	// frame (contiguous typed columns).
	opRetrieveChunk // ids -> one columnar chunk, one Get per owning server (Retrieve is one id)
	opStoreChunk    // container + chunk -> owner-local member data
)

// opNames names each entry kind, by its byte, in the text of its
// refusal or its answer's error; other bytes have no name.
var opNames = [256]string{opPut: "put", opCreate: "create", opStore: "store", opInsert: "insert",
	opWriteRefcount: "refcount", opStoreChunk: "store_chunk", opLookup: "lookup",
	opEnumerate: "enumerate", opRetrieveChunk: "retrieve_chunk", opUnique: "unique"}

// isRead reports whether op is a read, an entry the Get's reply answers.
func isRead(op uint8) bool {
	return op == opLookup || op == opEnumerate || op == opRetrieveChunk || op == opUnique
}

// Server-to-server opcodes.
const (
	sopStealReq uint8 = iota + 64
	sopStealResp
	sopPutForward
	sopToken
	sopShutdown
	sopStallReport // a drained server's stalled rules ("" if none), to the master
)

// Response status codes.
const (
	stOK uint8 = iota
	stError
	stNoMoreWork
	stNotFound
	// stRefused refuses a Get at a write it carried: the reply's text is
	// the error's whole text, the one a lone write's refusal has always
	// had.
	stRefused
)

// Target sentinel: work item may run on any rank.
const AnyRank = -1

// Get request flags: getFlagLeased asks for work under server-tracked
// leases, and getFlagDepart makes the Get, which wants none, the
// client's last (see the package doc).
const (
	getFlagLeased uint8 = 1 << iota
	getFlagDepart
)

// maxDelivery is the most work items one Get reply carries. A leased Get
// served from the untargeted queue takes its first item and a share of
// the rest: at most maxDelivery-1 more, and at most the queue left over
// divided among the server's clients still running, so a draining queue
// goes out one item at a time. On swiftbench's elastic_tcp (2 TCP
// workers, 1 server; a 2 vCPU Xeon) shares of up to 8 read work_per_s
// 2.25 times the one-item Get's (see CHANGES.md).
const maxDelivery = 8

// getRequest is a Get's body after the opcode: the work type, the flags,
// how many items the client wants — up to maxDelivery for a leased Get,
// 1 for any other, and 0 for a Get that only carries entries or departs
// — and the entries: what the client changed at the server since its
// last Get there, in program order, and the read it waits on, if any.
type getRequest struct {
	typ     int
	flags   uint8
	want    uint8
	entries []entry
}

// entry is one of a Get's entries: a write or a read — its opcode and
// body, aliasing the frame, and decoded only when the server reaches it
// — or, when req is nil, a settle. On the wire each entry is
// length-prefixed and starts with its kind byte: the request's opcode,
// or entrySettle.
type entry struct {
	req    []byte
	settle settle
}

// entrySettle is a settle entry's kind byte; no opcode is 0.
const entrySettle uint8 = 0

// Settle kinds: how a leased task ended — done, failed, or handed back
// never started by a client that departs.
const (
	settleDone uint8 = iota
	settleFailed
	settleHandedBack
)

// settle ends one leased task, the one way a lease ends.
type settle struct {
	lease     int64
	kind      uint8
	reason    string // failed
	retriable bool   // failed
}

// getHeadBytes is a Get request's opcode and head: the work type, the
// flags, the count wanted and the count of entries.
const getHeadBytes = 1 + 4 + 1 + 1 + 4

func encodeGetHead(e *encoder, typ int, flags, want uint8, entries int) {
	e.i32(int32(typ))
	e.u8(flags)
	e.u8(want)
	e.u32(uint32(entries))
}

// encodeSettle appends st as an entry.
func encodeSettle(e *encoder, st *settle) {
	n := 1 + 8 + 1
	if st.kind == settleFailed {
		n += 4 + len(st.reason) + 1
	}
	e.u32(uint32(n))
	e.u8(entrySettle)
	e.i64(st.lease)
	e.u8(st.kind)
	if st.kind == settleFailed {
		e.str(st.reason)
		e.boolean(st.retriable)
	}
}

func encodeGet(e *encoder, g *getRequest) {
	encodeGetHead(e, g.typ, g.flags, g.want, len(g.entries))
	for i := range g.entries {
		if en := &g.entries[i]; en.req != nil {
			e.bytes(en.req)
		} else {
			encodeSettle(e, &en.settle)
		}
	}
}

// decodeGet reads encodeGet's form into g, reusing its entries' storage.
// An entry count beyond the frame, a want past maxDelivery, an unknown
// flag, a departing Get that wants work, an empty entry, one of an
// unknown kind, a read in a Get that wants work, a settle cut short, of
// lease 0, of an unknown kind or handing an item back in a Get that does
// not depart, and bytes after the last entry are decode errors, since no
// client builds such a Get; g then has no entries, so a malformed frame
// is never kept for the stores it names. A request's own body is decoded
// only when the server reaches it.
func decodeGet(d *decoder, g *getRequest) {
	g.typ, g.flags, g.want = int(d.i32()), d.u8(), d.u8()
	n := d.count(4+1, "get entries") // each at least a length and a kind byte
	g.entries = g.entries[:0]
	depart := g.flags&getFlagDepart != 0
	switch {
	case d.err != nil:
		return
	case g.flags&^(getFlagLeased|getFlagDepart) != 0:
		d.err = fmt.Errorf("adlb: wire decode: get: unknown flags %#x", g.flags)
	case g.want > maxDelivery:
		d.err = fmt.Errorf("adlb: wire decode: get: wants %d items, at most %d", g.want, maxDelivery)
	case depart && g.want > 0:
		d.err = fmt.Errorf("adlb: wire decode: get: a departing Get wants %d items", g.want)
	}
	for i := 0; i < n && d.err == nil; i++ {
		var en entry
		switch b := d.bytes(); {
		case d.err != nil:
		case len(b) == 0:
			d.err = fmt.Errorf("adlb: wire decode: get: entry %d is empty", i)
		case b[0] != entrySettle && opNames[b[0]] == "":
			d.err = fmt.Errorf("adlb: wire decode: get: entry %d is neither a request nor a settle", i)
		case isRead(b[0]) && g.want > 0:
			d.err = fmt.Errorf("adlb: wire decode: get: entry %d is a read in a Get that wants work", i)
		case b[0] != entrySettle:
			en.req = b
		default:
			sd := &decoder{buf: b, off: 1}
			s := &en.settle
			s.lease, s.kind = sd.i64(), sd.u8()
			if s.kind == settleFailed {
				s.reason, s.retriable = sd.str(), sd.boolean()
			}
			switch err := sd.finish("get settle"); {
			case err != nil:
				d.err = err
			case s.lease == 0:
				d.err = fmt.Errorf("adlb: wire decode: get: settle %d names no lease", i)
			case s.kind > settleHandedBack:
				d.err = fmt.Errorf("adlb: wire decode: get: settle %d of unknown kind %d", i, s.kind)
			case s.kind == settleHandedBack && !depart:
				d.err = fmt.Errorf("adlb: wire decode: get: settle %d hands an item back in a Get that does not depart", i)
			}
		}
		g.entries = append(g.entries, en)
	}
	if d.err = d.finish("get request"); d.err != nil {
		g.entries = g.entries[:0]
	}
}

// delivered is one work item of a Get reply: its lease (0 when the Get
// was not leased), its payload and the rows of its inputs the delivering
// server owns. As the client decodes it, payload and rows alias the
// reply frame.
type delivered struct {
	lease   int64
	payload []byte
	ids     []int64
	rows    chunk.Chunk
}

// A Get reply that is not a refusal is stOK, the answer to each read the
// Get carried (a status, then what the read found or the error's text),
// a u32 count of items, then each item: the lease when leased, the
// payload, and its rows (encodeRows).
func encodeDelivered(e *encoder, leased bool, it *delivered) {
	if leased {
		e.i64(it.lease)
	}
	e.bytes(it.payload)
	encodeRows(e, it.ids, it.rows)
}

// decodeDelivery reads a Get reply's count and items, after its status,
// into items, reusing their storage. The count must be at least 1 and
// at most want, the items the Get asked for (0 for a Get that wants
// nothing, which is answered with none), and a leased item must carry a
// lease: anything else is a decode error, and yields no items.
func decodeDelivery(d *decoder, leased bool, want int, items []delivered) []delivered {
	minBytes := 8 // the payload's length and the row ids' count
	if leased {
		minBytes += 8
	}
	n := d.count(minBytes, "get items")
	if d.err == nil && (n > want || n == 0 && want > 0) {
		d.err = fmt.Errorf("adlb: wire decode: get: %d items for a Get wanting %d", n, want)
	}
	if d.err != nil {
		return items[:0]
	}
	if cap(items) < n {
		items = append(items[:cap(items)], make([]delivered, n-cap(items))...)
	}
	items = items[:n]
	for i := range items {
		it := &items[i]
		it.lease = 0
		if leased {
			if it.lease = d.i64(); d.err == nil && it.lease <= 0 {
				d.err = fmt.Errorf("adlb: wire decode: get: item %d has lease %d", i, it.lease)
			}
		}
		it.payload = d.bytes()
		it.ids, it.rows = decodeRows(d, it.ids)
	}
	if d.err != nil {
		return items[:0]
	}
	return items
}

// workItem is one unit of work in a server queue.
type workItem struct {
	Type     int
	Priority int
	Target   int // AnyRank or a specific worker rank
	Attempts int // executions already started and failed or lost
	Payload  []byte
	// Inputs are the ids the item waited on, in the Put's order; the
	// server that delivers it sends the rows of those it owns along.
	Inputs []int64
}

func encodeWorkItem(e *encoder, w workItem) {
	e.i32(int32(w.Type))
	e.i32(int32(w.Priority))
	e.i32(int32(w.Target))
	e.i32(int32(w.Attempts))
	e.bytes(w.Payload)
	encodeIDs(e, w.Inputs)
}

func decodeWorkItem(d *decoder) workItem {
	var w workItem
	w.Type = int(d.i32())
	w.Priority = int(d.i32())
	w.Target = int(d.i32())
	w.Attempts = int(d.i32())
	w.Payload = append([]byte(nil), d.bytes()...)
	w.Inputs = decodeIDs(d, "work item inputs")
	return w
}

// DataType enumerates the value types held by the ADLB data store. These
// mirror Turbine's typed data (TD) universe. A scalar type is its chunk
// row kind, so a row's kind tag names its type with no mapping.
type DataType uint8

// Data store value types.
const (
	TypeVoid      = DataType(chunk.KindVoid)
	TypeInteger   = DataType(chunk.KindInt)
	TypeFloat     = DataType(chunk.KindFloat)
	TypeString    = DataType(chunk.KindString)
	TypeBlob      = DataType(chunk.KindBlob)
	TypeContainer = TypeBlob + 1
)

func (t DataType) String() string {
	switch t {
	case TypeVoid:
		return "void"
	case TypeInteger:
		return "integer"
	case TypeFloat:
		return "float"
	case TypeString:
		return "string"
	case TypeBlob:
		return "blob"
	case TypeContainer:
		return "container"
	}
	return fmt.Sprintf("DataType(%d)", uint8(t))
}

// Value is a typed datum in the data store. The Bytes field carries the
// canonical encoding: 8-byte little-endian for integers and floats (IEEE
// bits), UTF-8 for strings, raw bytes for blobs. Blob values additionally
// carry layout metadata — logical Fortran extents and an element-kind
// tag — so bulk numeric data keeps its shape and type across the store
// without the payload ever being re-encoded (the blobutils contract: a
// pointer + length pair reinterpreted at a given element type).
//
// On the wire a value is one chunk row: appendRow and rowValue convert
// (row is a value alone, aliasing its bytes), and nothing else encodes a
// value.
type Value struct {
	Type  DataType
	Bytes []byte
	Dims  []int // blob only: logical extents, column-major
	Elem  uint8 // blob only: element kind (blob.Elem; 0 = raw bytes)
}

// appendRow appends v to c as its next row, copying the payload: the
// Value→row half of the one wire form (rowValue is the other).
func appendRow(c *chunk.Chunk, v *Value) error {
	switch v.Type {
	case TypeVoid:
		c.AppendVoid()
	case TypeInteger, TypeFloat:
		return c.AppendNumRaw(byte(v.Type), v.Bytes)
	case TypeString:
		c.AppendBytes(v.Bytes)
	case TypeBlob:
		c.AppendBlob(v.Bytes, v.Elem, v.Dims)
	default:
		return fmt.Errorf("adlb: a %v value has no row", v.Type)
	}
	return nil
}

// row is v alone as a one-row chunk whose string or blob payload column
// is v.Bytes itself, not a copy, so a Store or a one-id retrieve reply
// copies the payload once, onto the wire. Append nothing to the chunk:
// that would write into v's bytes.
func row(v Value) (chunk.Chunk, error) {
	var c chunk.Chunk
	payload := v.Bytes
	if v.Type == TypeString || v.Type == TypeBlob {
		v.Bytes = nil // appended empty, then pointed at the payload
	}
	if err := appendRow(&c, &v); err != nil {
		return c, err
	}
	if len(c.Off) == 2 {
		c.Raw, c.Off[1] = payload, uint32(len(payload))
	}
	return c, nil
}

// rowValue is the reader's current row as a Value aliasing the chunk's
// columns: on the client until the next call, on the server for the life
// of the retained request frame (see dispatch).
func rowValue(r *chunk.Reader) Value {
	v := Value{Type: DataType(r.Kind())}
	switch v.Type {
	case TypeInteger, TypeFloat:
		v.Bytes = r.NumRaw()
	case TypeString:
		v.Bytes = r.Bytes()
	case TypeBlob:
		m := r.Meta()
		v.Bytes, v.Elem, v.Dims = r.Bytes(), m.Elem, m.Dims
	}
	return v
}

// Pair is one (subscript, member id) entry of a container enumeration.
type Pair struct {
	Subscript string
	Member    int64
}

// encodeIDs writes a counted id list: u32 n, then n i64.
func encodeIDs(e *encoder, ids []int64) {
	e.u32(uint32(len(ids)))
	for _, id := range ids {
		e.i64(id)
	}
}

// decodeIDs reads a counted id list (u32 n, then n i64): the body of a
// retrieve_chunk entry, a work item's inputs, a forwarded rule's
// wait list and a delivered item's row ids.
func decodeIDs(d *decoder, what string) []int64 {
	return appendIDs(nil, d, what)
}

// appendIDs is decodeIDs appending to ids, for a caller that reuses the
// slice; an empty list appends nothing.
func appendIDs(ids []int64, d *decoder, what string) []int64 {
	n := d.count(8, what)
	ids = slices.Grow(ids, n)
	for i := 0; i < n; i++ {
		ids = append(ids, d.i64())
	}
	return ids
}

// encodeRows writes a delivered item's rows: the ids, counted, then —
// unless there are none — one chunk with a row per id.
func encodeRows(e *encoder, ids []int64, rows chunk.Chunk) {
	encodeIDs(e, ids)
	if len(ids) > 0 {
		encodeChunk(e, rows)
	}
}

// decodeRows reads encodeRows' form, reusing ids' storage. A frame that
// fails to decode, or whose chunk has not one row per id, yields no ids
// and an empty chunk.
func decodeRows(d *decoder, ids []int64) ([]int64, chunk.Chunk) {
	var rows chunk.Chunk
	if ids = appendIDs(ids[:0], d, "item row ids"); len(ids) > 0 {
		rows = decodeChunk(d)
		if d.err == nil && rows.Len() != len(ids) {
			d.err = fmt.Errorf("adlb: wire decode: %d row ids, %d rows", len(ids), rows.Len())
		}
	}
	if d.err != nil {
		return ids[:0], chunk.Chunk{}
	}
	return ids, rows
}

// decodePairs reads an enumerate answer: u32 n, then n (subscript,
// member id) pairs in insertion order. A pair is at least a u32 subscript
// length and an i64 id, and the loop stops at the first decode error, so
// a hostile count costs neither memory nor time.
func decodePairs(d *decoder) []Pair {
	n := d.count(12, "enumerate pairs")
	if d.err != nil {
		return nil
	}
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		sub := d.str()
		id := d.i64()
		if d.err != nil {
			return nil
		}
		pairs = append(pairs, Pair{Subscript: sub, Member: id})
	}
	return pairs
}

// The chunk frame, the one wire form of values: length-prefixed column
// buffers. Kinds, Num, and Raw travel as single byte fields (one copy
// onto the wire, one alias off it); Off and Meta are small per-var-row
// and per-blob-row tables.

// chunkBytes is the bytes c takes in a chunk frame.
func chunkBytes(c chunk.Chunk) int {
	n := 3*4 + len(c.Kinds) + len(c.Num) + len(c.Raw) + 4 + 4*len(c.Off) + 4
	for _, m := range c.Meta {
		n += 1 + 4 + 8*len(m.Dims)
	}
	return n
}

func encodeChunk(e *encoder, c chunk.Chunk) {
	e.bytes(c.Kinds)
	e.bytes(c.Num)
	e.bytes(c.Raw)
	e.u32(uint32(len(c.Off)))
	for _, o := range c.Off {
		e.u32(o)
	}
	e.u32(uint32(len(c.Meta)))
	for _, m := range c.Meta {
		e.u8(m.Elem)
		e.u32(uint32(len(m.Dims)))
		for _, d := range m.Dims {
			e.i64(int64(d))
		}
	}
}

// decodeChunk decodes a chunk frame zero-copy: the Kinds, Num, and Raw
// columns alias the decoder's frame. The decoded chunk is validated, so
// a malformed frame surfaces as a decode error rather than a chunk whose
// readers index out of bounds.
func decodeChunk(d *decoder) chunk.Chunk {
	var c chunk.Chunk
	c.Kinds = d.bytes()
	c.Num = d.bytes()
	c.Raw = d.bytes()
	if nOff := d.count(4, "chunk offsets"); nOff > 0 {
		c.Off = make([]uint32, nOff)
		for i := range c.Off {
			c.Off[i] = d.u32()
		}
	}
	if nMeta := d.count(5, "chunk metas"); nMeta > 0 {
		c.Meta = make([]chunk.BlobMeta, nMeta)
		for i := range c.Meta {
			c.Meta[i].Elem = d.u8()
			if nd := d.count(8, "chunk blob dims"); nd > 0 {
				c.Meta[i].Dims = make([]int, nd)
				for j := range c.Meta[i].Dims {
					c.Meta[i].Dims[j] = int(d.i64())
				}
			}
		}
	}
	if d.err == nil {
		if err := c.Validate(); err != nil {
			d.err = fmt.Errorf("adlb: wire decode: %w", err)
		}
	}
	return c
}

// EncodeChunkFrame renders c as a chunk frame: the bytes StoreChunk and
// RetrieveChunk carry, for callers that ship a chunk as a work-item
// payload instead (swiftd's fragment tasks and responses).
func EncodeChunkFrame(c chunk.Chunk) ([]byte, error) {
	var e encoder
	e.grow(chunkBytes(c))
	encodeChunk(&e, c)
	return e.frame()
}

// DecodeChunkFrame is the inverse of EncodeChunkFrame. The frame must hold
// exactly one valid chunk (trailing bytes are an error), and the chunk's
// Kinds, Num and Raw columns alias it: a row payload that outlives frame
// must be copied out.
func DecodeChunkFrame(frame []byte) (chunk.Chunk, error) {
	d := decoder{buf: frame}
	c := decodeChunk(&d)
	return c, d.finish("chunk frame")
}

// describe renders a work item's payload for a diagnostic: a chunk
// frame as its rows, space-separated (a string as its text, a blob as
// its size), and anything else as its bytes.
func describe(payload []byte) string {
	c, err := DecodeChunkFrame(payload)
	if err != nil {
		return string(payload)
	}
	var b strings.Builder
	r := c.Reader()
	for r.Next() {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		switch r.Kind() {
		case chunk.KindInt:
			b.WriteString(strconv.FormatInt(r.Int(), 10))
		case chunk.KindFloat:
			b.WriteString(strconv.FormatFloat(r.Float(), 'g', -1, 64))
		case chunk.KindString:
			b.Write(r.Bytes())
		case chunk.KindBlob:
			fmt.Fprintf(&b, "<blob of %d bytes>", len(r.Bytes()))
		default:
			b.WriteString("<void>")
		}
	}
	return b.String()
}
