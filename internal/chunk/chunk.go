// Package chunk defines the columnar representation of batched values on
// the typed data plane, modeled on TiDB's vectorized chunk: instead of N
// boxed per-element values, a batch travels as one contiguous typed
// buffer per element class plus a one-byte-per-row kind tag. A chunk of a
// million floats is two buffers (1 MB of kind tags, 8 MB of IEEE bits),
// not a million allocations, and the numeric column is bit-identical to a
// packed blob payload — so gather (container -> packed vector) and
// scatter (packed vector -> container) convert between chunk and blob
// with at most a slice alias.
//
// The layout is row-ordered within each column: row i's payload lives in
// the column selected by Kinds[i], after the payloads of all earlier rows
// of the same class. Numeric rows (ints and floats) share the Num column
// at 8 bytes per row, little-endian — IEEE bits for floats, two's
// complement for ints, exactly the data-store encoding. Variable-width
// rows (strings and blobs) share the Raw column, delimited by Off; blob
// rows additionally carry their element kind and logical dims in Meta.
// Void rows occupy no column space at all.
//
// Chunks decoded from the wire alias the received frame (see the
// data-plane memory model in the repository doc.go): columns are views,
// valid until the frame's documented release point, and consumers that
// keep row payloads longer must copy them out.
package chunk

import (
	"fmt"
	"math"
)

// Row kind tags. The zero value is deliberately not a valid kind so a
// zeroed Kinds column cannot masquerade as a chunk of voids.
const (
	KindVoid   byte = 1
	KindInt    byte = 2
	KindFloat  byte = 3
	KindString byte = 4
	KindBlob   byte = 5
)

// BlobMeta is the layout metadata of one blob row: the element kind
// (blob.Elem's numeric value; 0 = raw bytes) and logical Fortran-order
// extents, the Elem and Dims of an adlb.Value blob.
type BlobMeta struct {
	Elem uint8
	Dims []int
}

// Chunk is one columnar batch. The zero value is an empty chunk ready
// for appending; Reset recycles the buffers for the next batch.
type Chunk struct {
	Kinds []byte     // one kind tag per row
	Num   []byte     // 8 bytes per int/float row, in row order
	Raw   []byte     // concatenated string/blob payloads, in row order
	Off   []uint32   // var-row j's payload is Raw[Off[j]:Off[j+1]]
	Meta  []BlobMeta // one entry per blob row, in row order
}

// Len returns the number of rows.
func (c *Chunk) Len() int { return len(c.Kinds) }

// Reset empties the chunk, keeping the column buffers for reuse.
func (c *Chunk) Reset() {
	c.Kinds = c.Kinds[:0]
	c.Num = c.Num[:0]
	c.Raw = c.Raw[:0]
	c.Off = c.Off[:0]
	c.Meta = c.Meta[:0]
}

func (c *Chunk) appendNum(kind byte, b8 [8]byte) {
	c.Kinds = append(c.Kinds, kind)
	c.Num = append(c.Num, b8[:]...)
}

// AppendInt appends an integer row.
func (c *Chunk) AppendInt(v int64) {
	var b [8]byte
	putU64(b[:], uint64(v))
	c.appendNum(KindInt, b)
}

// AppendFloat appends a float row.
func (c *Chunk) AppendFloat(v float64) {
	var b [8]byte
	putU64(b[:], math.Float64bits(v))
	c.appendNum(KindFloat, b)
}

// AppendNumRaw appends an int or float row from its canonical 8-byte
// little-endian encoding, avoiding a decode/re-encode when the bits are
// already in store form.
func (c *Chunk) AppendNumRaw(kind byte, b []byte) error {
	if kind != KindInt && kind != KindFloat {
		return fmt.Errorf("chunk: AppendNumRaw of kind %d", kind)
	}
	if len(b) != 8 {
		return fmt.Errorf("chunk: numeric row must be 8 bytes, got %d", len(b))
	}
	c.Kinds = append(c.Kinds, kind)
	c.Num = append(c.Num, b...)
	return nil
}

func (c *Chunk) appendVar(kind byte, b []byte) {
	if len(c.Off) == 0 {
		c.Off = append(c.Off, 0)
	}
	c.Kinds = append(c.Kinds, kind)
	c.Raw = append(c.Raw, b...)
	c.Off = append(c.Off, uint32(len(c.Raw)))
}

// AppendString appends a string row.
func (c *Chunk) AppendString(s string) {
	if len(c.Off) == 0 {
		c.Off = append(c.Off, 0)
	}
	c.Kinds = append(c.Kinds, KindString)
	c.Raw = append(c.Raw, s...)
	c.Off = append(c.Off, uint32(len(c.Raw)))
}

// AppendBytes appends a string row from raw bytes.
func (c *Chunk) AppendBytes(b []byte) { c.appendVar(KindString, b) }

// AppendBlob appends a blob row with its layout metadata.
func (c *Chunk) AppendBlob(b []byte, elem uint8, dims []int) {
	c.appendVar(KindBlob, b)
	c.Meta = append(c.Meta, BlobMeta{Elem: elem, Dims: dims})
}

// AppendVoid appends a void (signal-only) row.
func (c *Chunk) AppendVoid() { c.Kinds = append(c.Kinds, KindVoid) }

// AllKind returns the single kind shared by every row, or false when the
// chunk is empty or mixed-kind. Homogeneous numeric chunks are the fast
// path: their Num column is bit-identical to a packed blob payload.
func (c *Chunk) AllKind() (byte, bool) {
	if len(c.Kinds) == 0 {
		return 0, false
	}
	k := c.Kinds[0]
	for _, t := range c.Kinds[1:] {
		if t != k {
			return 0, false
		}
	}
	return k, true
}

// Validate checks the cross-column invariants: every kind tag is known,
// the Num column holds exactly 8 bytes per numeric row, Off delimits
// exactly the var-width rows with nondecreasing offsets ending at
// len(Raw), and Meta has one entry per blob row. Wire decoding calls this
// so a hostile frame cannot produce a chunk whose readers index out of
// bounds.
func (c *Chunk) Validate() error {
	var nums, vars, blobs int
	for i, k := range c.Kinds {
		switch k {
		case KindVoid:
		case KindInt, KindFloat:
			nums++
		case KindString:
			vars++
		case KindBlob:
			vars++
			blobs++
		default:
			return fmt.Errorf("chunk: row %d has unknown kind %d", i, k)
		}
	}
	if len(c.Num) != 8*nums {
		return fmt.Errorf("chunk: %d numeric rows need %d Num bytes, have %d", nums, 8*nums, len(c.Num))
	}
	if vars == 0 {
		if len(c.Off) != 0 || len(c.Raw) != 0 {
			return fmt.Errorf("chunk: no var-width rows but %d offsets and %d Raw bytes", len(c.Off), len(c.Raw))
		}
	} else {
		if len(c.Off) != vars+1 {
			return fmt.Errorf("chunk: %d var-width rows need %d offsets, have %d", vars, vars+1, len(c.Off))
		}
		if c.Off[0] != 0 {
			return fmt.Errorf("chunk: first offset is %d, want 0", c.Off[0])
		}
		for j := 1; j < len(c.Off); j++ {
			if c.Off[j] < c.Off[j-1] {
				return fmt.Errorf("chunk: offset %d decreases (%d < %d)", j, c.Off[j], c.Off[j-1])
			}
		}
		if int(c.Off[vars]) != len(c.Raw) {
			return fmt.Errorf("chunk: offsets end at %d, Raw has %d bytes", c.Off[vars], len(c.Raw))
		}
	}
	if len(c.Meta) != blobs {
		return fmt.Errorf("chunk: %d blob rows need %d Meta entries, have %d", blobs, blobs, len(c.Meta))
	}
	return nil
}

// Reader walks a chunk's rows in order, tracking the per-column cursors.
// The zero Reader is not valid; obtain one from Chunk.Reader.
type Reader struct {
	c    *Chunk
	row  int // current row, -1 before the first Next
	num  int // numeric rows consumed before the current row
	vr   int // var-width rows consumed before the current row
	blob int // blob rows consumed before the current row
}

// Reader returns a row reader positioned before the first row.
func (c *Chunk) Reader() Reader { return Reader{c: c, row: -1} }

// Next advances to the next row, returning false past the end.
func (r *Reader) Next() bool {
	if r.row >= 0 {
		switch r.c.Kinds[r.row] {
		case KindInt, KindFloat:
			r.num++
		case KindString:
			r.vr++
		case KindBlob:
			r.vr++
			r.blob++
		}
	}
	r.row++
	return r.row < len(r.c.Kinds)
}

// Kind returns the current row's kind tag.
func (r *Reader) Kind() byte { return r.c.Kinds[r.row] }

// Int decodes the current (integer) row.
func (r *Reader) Int() int64 { return int64(getU64(r.c.Num[8*r.num:])) }

// Float decodes the current (float) row.
func (r *Reader) Float() float64 { return math.Float64frombits(getU64(r.c.Num[8*r.num:])) }

// NumRaw returns the current numeric row's canonical 8-byte encoding,
// aliasing the Num column.
func (r *Reader) NumRaw() []byte { return r.c.Num[8*r.num : 8*r.num+8] }

// Bytes returns the current string or blob row's payload, aliasing Raw.
func (r *Reader) Bytes() []byte { return r.c.Raw[r.c.Off[r.vr]:r.c.Off[r.vr+1]] }

// Meta returns the current (blob) row's layout metadata.
func (r *Reader) Meta() BlobMeta { return r.c.Meta[r.blob] }

// ---- minimal little-endian helpers (keep the package dependency-free) ----

func putU64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	_ = b[7]
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
