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
	opStore
	opRetrieve
	opSubscribe // rank + counted id list -> one closed flag per id (see Client.Subscribe)
	opInsert
	opLookup
	opEnumerate
	opWriteRefcount
	opUnique
	// Fault-tolerance ops: lease settlement and client departure.
	opFail  // report a leased task failed; server requeues or poisons
	opLeave // client departs; server reclaims its leases and unregisters it
	// Columnar data-plane ops, the only batched element traffic: the
	// container<->vector bridge costs O(servers) RPCs, not O(elements),
	// and each RPC carries one chunk frame (contiguous typed columns).
	opRetrieveChunk // many ids -> one columnar chunk, one RPC per owning server
	opStoreChunk    // container + chunk -> owner-local member data, one RPC
	// Serving op: a long-lived client declares itself pinned, holding the
	// world open across idle periods (see Client.Pin).
	opPin
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
// mirror Turbine's typed data (TD) universe.
type DataType uint8

// Data store value types.
const (
	TypeVoid DataType = iota + 1
	TypeInteger
	TypeFloat
	TypeString
	TypeBlob
	TypeContainer
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
type Value struct {
	Type  DataType
	Bytes []byte
	Dims  []int // blob only: logical extents, column-major
	Elem  uint8 // blob only: element kind (blob.Elem; 0 = raw bytes)
}

func encodeValue(e *encoder, v Value) {
	e.u8(uint8(v.Type))
	e.bytes(v.Bytes)
	if v.Type == TypeBlob {
		e.u8(v.Elem)
		e.u32(uint32(len(v.Dims)))
		for _, d := range v.Dims {
			e.i64(int64(d))
		}
	}
}

// decodeValue decodes a value zero-copy: v.Bytes aliases the decoder's
// frame. Client-side, returned payloads stay valid until the frame's
// documented release point (the next call on the same Client); server-side,
// frames whose decoded values are stored are retained for the datum's
// lifetime (see dispatch), so the alias is permanent there.
func decodeValue(d *decoder) Value {
	var v Value
	v.Type = DataType(d.u8())
	v.Bytes = d.bytes()
	if v.Type == TypeBlob {
		v.Elem = d.u8()
		if n := d.count(8, "blob dims"); n > 0 {
			v.Dims = make([]int, n)
			for i := range v.Dims {
				v.Dims[i] = int(d.i64())
			}
		}
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

// The chunk frame: length-prefixed column buffers beside the per-value
// encoding. Kinds, Num, and Raw travel as single byte fields (one copy
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
