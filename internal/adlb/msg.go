package adlb

import (
	"fmt"

	"repro/internal/chunk"
)

// Message tags used on the simulated MPI transport. Client requests all
// travel on tagRequest and carry an opcode; each client has at most one
// outstanding request, so a single tagResponse suffices for replies.
// Server-to-server traffic uses dedicated tags so that a server's main
// loop can receive with wildcards and dispatch on the tag.
const (
	tagRequest  = 1 // client -> server RPC request
	tagResponse = 2 // server -> client RPC response
	tagServer   = 3 // server -> server control (steal, forward, token)
)

// Request opcodes.
const (
	opPut uint8 = iota + 1
	opGet
	opCreate
	opStore     // id + one-row chunk
	opSubscribe // rank + counted id list -> one closed flag per id (see Client.Subscribe)
	opInsert
	opLookup
	opEnumerate
	opWriteRefcount
	opUnique
	// Fault-tolerance ops: lease settlement and client departure.
	opFail  // report a leased task failed; server requeues or poisons
	opLeave // client departs; server reclaims its leases and unregisters it
	// Columnar data-plane ops: the container<->vector bridge costs
	// O(servers) RPCs, not O(elements), and each RPC carries one chunk
	// frame (contiguous typed columns).
	opRetrieveChunk // ids -> one columnar chunk, one RPC per owning server (Retrieve is one id)
	opStoreChunk    // container + chunk -> owner-local member data, one RPC
)

// Server-to-server opcodes.
const (
	sopStealReq uint8 = iota + 64
	sopStealResp
	sopPutForward
	sopToken
	sopShutdown
)

// Response status codes.
const (
	stOK uint8 = iota
	stError
	stNoMoreWork
	stNotFound
)

// Target sentinel: work item may run on any rank.
const AnyRank = -1

// Get request flags.
const (
	// getFlagLeased asks for the work item to be delivered under a
	// server-tracked lease (see the failure model in the package doc).
	getFlagLeased uint8 = 1 << 0
)

// workItem is one unit of work in a server queue.
type workItem struct {
	Type     int
	Priority int
	Target   int // AnyRank or a specific worker rank
	Attempts int // executions already started and failed or lost
	Payload  []byte
}

func encodeWorkItem(e *encoder, w workItem) {
	e.i32(int32(w.Type))
	e.i32(int32(w.Priority))
	e.i32(int32(w.Target))
	e.i32(int32(w.Attempts))
	e.bytes(w.Payload)
}

func decodeWorkItem(d *decoder) workItem {
	var w workItem
	w.Type = int(d.i32())
	w.Priority = int(d.i32())
	w.Target = int(d.i32())
	w.Attempts = int(d.i32())
	w.Payload = append([]byte(nil), d.bytes()...)
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

// decodeIDs reads a counted id list (u32 n, then n i64), the request body
// of both batched ops: retrieve_chunk and subscribe.
func decodeIDs(d *decoder, what string) []int64 {
	n := d.count(8, what)
	if d.err != nil {
		return nil
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = d.i64()
	}
	return ids
}

// decodePairs reads the enumerate response: u32 n, then n (subscript,
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
