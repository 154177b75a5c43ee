package lang

// The engine layer's columnar batch type is the shared chunk
// representation: defining it once (internal/chunk) and aliasing it here
// lets the ADLB wire layer, the turbine data plane, and this package
// move the same column buffers without a kind-tag remapping pass at each
// boundary.

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/chunk"
)

// Chunk is a columnar batch of values: one contiguous typed buffer per
// element class plus a per-row kind tag (see internal/chunk for the
// layout). It is how the batched data plane moves container-scale value
// traffic without boxing each element.
type Chunk = chunk.Chunk

// ValuesToChunk packs typed values into a fresh chunk. Blob and string
// payloads are referenced, not copied.
func ValuesToChunk(vals []Value) (Chunk, error) {
	var c Chunk
	for i := range vals {
		if !appendValue(&c, &vals[i]) {
			return c, fmt.Errorf("lang: value %d has no chunk form", i)
		}
	}
	return c, nil
}

// appendValue appends v as one row of c; ok is false for a value of no
// known kind.
func appendValue(c *Chunk, v *Value) (ok bool) {
	switch v.Kind() {
	case KindInt:
		c.AppendInt(v.i)
	case KindFloat:
		c.AppendFloat(v.f)
	case KindString:
		c.AppendString(v.s)
	case KindBlob:
		c.AppendBlob(v.b.Data, uint8(v.b.Elem), v.b.Dims)
	default:
		return false
	}
	return true
}

// ChunkToValues unboxes a chunk into typed values, the inverse of
// ValuesToChunk. copyBytes controls whether string and blob payloads are
// copied out of the chunk's columns: pass true when the values outlive
// the chunk's backing frame (the copy-on-escape rule), false when the
// caller finishes with them inside the frame's validity window.
func ChunkToValues(c Chunk, copyBytes bool) ([]Value, error) {
	out := make([]Value, c.Len())
	r := c.Reader()
	for i := range out {
		r.Next()
		if !rowValue(&r, copyBytes, &out[i]) {
			return nil, fmt.Errorf("lang: chunk row %d has unknown kind %d", i, r.Kind())
		}
	}
	return out, nil
}

// rowValue sets *v to the reader's current row, unboxed (a void row reads
// as ""); ok is false for an unknown kind. A string's bytes are always
// copied, a blob's when copyBytes is set.
func rowValue(r *chunk.Reader, copyBytes bool, v *Value) (ok bool) {
	switch r.Kind() {
	case chunk.KindVoid:
		*v = Str("")
	case chunk.KindInt:
		*v = Int(r.Int())
	case chunk.KindFloat:
		*v = Float(r.Float())
	case chunk.KindString:
		*v = Str(string(r.Bytes()))
	case chunk.KindBlob:
		m := r.Meta()
		data := r.Bytes()
		if copyBytes {
			data = append([]byte(nil), data...)
		}
		*v = BlobOf(blob.Blob{Data: data, Dims: m.Dims, Elem: blob.Elem(m.Elem)})
	default:
		return false
	}
	return true
}
