package adlb

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/chunk"
)

// The encoder must reject fields whose length cannot be framed in the u32
// prefix instead of silently truncating the length and corrupting every
// field after it. maxFieldBytes is lowered so the regression does not
// need a >4 GiB allocation; the check itself is length-based only.
func TestEncoderRejectsOversizedField(t *testing.T) {
	saved := maxFieldBytes
	maxFieldBytes = 16
	defer func() { maxFieldBytes = saved }()

	t.Run("bytes", func(t *testing.T) {
		e := &encoder{}
		e.bytes(make([]byte, 17))
		if e.err == nil {
			t.Fatal("oversized bytes field accepted")
		}
		if _, err := e.frame(); err == nil {
			t.Fatal("frame() returned a corrupted frame")
		}
	})
	t.Run("str", func(t *testing.T) {
		e := &encoder{}
		e.str(strings.Repeat("x", 17))
		if e.err == nil {
			t.Fatal("oversized string field accepted")
		}
		if _, err := e.frame(); err == nil {
			t.Fatal("frame() returned a corrupted frame")
		}
	})
	t.Run("error-is-sticky", func(t *testing.T) {
		e := &encoder{}
		e.bytes(make([]byte, 17))
		first := e.err
		e.str(strings.Repeat("y", 17))
		if e.err != first {
			t.Fatal("second failure overwrote the first error")
		}
	})
	t.Run("at-limit-ok", func(t *testing.T) {
		e := &encoder{}
		e.bytes(make([]byte, 16))
		e.str(strings.Repeat("x", 16))
		frame, err := e.frame()
		if err != nil {
			t.Fatalf("exact-limit field rejected: %v", err)
		}
		d := &decoder{buf: frame}
		if got := d.bytes(); len(got) != 16 {
			t.Fatalf("bytes round-trip lost data: %d", len(got))
		}
		if got := d.str(); len(got) != 16 {
			t.Fatalf("str round-trip lost data: %d", len(got))
		}
		if err := d.finish("wire test"); err != nil {
			t.Fatal(err)
		}
	})
}

// A fully decoded message must consume its whole frame: trailing bytes
// mean sender and receiver disagree about the layout, and finish() turns
// that from silence into a loud failure.
func TestDecoderRejectsTrailingGarbage(t *testing.T) {
	t.Run("work-item", func(t *testing.T) {
		e := &encoder{}
		encodeWorkItem(e, workItem{Type: 1, Priority: 2, Target: 3, Payload: []byte("job")})
		frame, err := e.frame()
		if err != nil {
			t.Fatal(err)
		}
		d := &decoder{buf: frame}
		if w := decodeWorkItem(d); string(w.Payload) != "job" {
			t.Fatalf("payload = %q", w.Payload)
		}
		if err := d.finish("work item"); err != nil {
			t.Fatalf("clean frame rejected: %v", err)
		}

		d = &decoder{buf: append(append([]byte(nil), frame...), 0xAB)}
		decodeWorkItem(d)
		if err := d.finish("work item"); err == nil {
			t.Fatal("trailing garbage accepted after work item")
		}
	})
	// A value's wire form is its one-row chunk.
	valueFrame := func(t *testing.T, v Value) []byte {
		t.Helper()
		c, err := row(v)
		if err != nil {
			t.Fatal(err)
		}
		e := &encoder{}
		encodeChunk(e, c)
		return e.buf
	}
	t.Run("value", func(t *testing.T) {
		frame := valueFrame(t, Value{Type: TypeBlob, Bytes: []byte{1, 2, 3}, Dims: []int{3}, Elem: 2})
		d := &decoder{buf: frame}
		c := decodeChunk(d)
		if err := d.finish("value"); err != nil || c.Len() != 1 {
			t.Fatalf("clean frame rejected: %v (%d rows)", err, c.Len())
		}

		d = &decoder{buf: append(append([]byte(nil), frame...), 0xCD, 0xEF)}
		decodeChunk(d)
		if err := d.finish("value"); err == nil {
			t.Fatal("trailing garbage accepted after value")
		}
	})
	t.Run("truncated-still-fails", func(t *testing.T) {
		frame := valueFrame(t, Value{Type: TypeString, Bytes: []byte("hello")})
		d := &decoder{buf: frame[:len(frame)-2]}
		decodeChunk(d)
		if err := d.finish("value"); err == nil {
			t.Fatal("truncated frame accepted")
		}
	})
}

// countedFrame is one clean frame of a count-prefixed message body;
// decode reads the shape back and reports how many entries it produced.
type countedFrame struct {
	name   string
	frame  []byte
	count  int // entries in the clean frame
	at     int // offset of the u32 count
	decode func(d *decoder) int
}

// countedFrames builds one of each: a batched subscribe request (rank +
// id list), its response (a length-prefixed run of closed flags), an
// enumerate response (subscript/member pairs), and a blob value (its row's
// dims table, the last field of its chunk frame).
func countedFrames() []countedFrame {
	sub := &encoder{}
	sub.i32(3)
	sub.u32(4)
	for _, id := range []int64{7, -9, 1 << 40, 0} {
		sub.i64(id)
	}
	flags := &encoder{}
	flags.bytes([]byte{1, 0, 0, 1})
	pairs := &encoder{}
	pairs.u32(3)
	for i, sub := range []string{"0", "", "a long subscript"} {
		pairs.str(sub)
		pairs.i64(int64(100 + i))
	}
	blob := &encoder{}
	blobRow, _ := row(Value{Type: TypeBlob, Bytes: []byte{1, 2}, Dims: []int{2, 1, 1}, Elem: 1})
	encodeChunk(blob, blobRow)
	blobDims := func(d *decoder) int {
		if c := decodeChunk(d); len(c.Meta) == 1 {
			return len(c.Meta[0].Dims)
		}
		return 0
	}
	return []countedFrame{
		{"subscribe-request", sub.buf, 4, 4, func(d *decoder) int { d.i32(); return len(decodeIDs(d, "subscribe ids")) }},
		{"subscribe-response", flags.buf, 4, 0, func(d *decoder) int { return len(d.bytes()) }},
		{"enumerate-response", pairs.buf, 3, 0, func(d *decoder) int { return len(decodePairs(d)) }},
		{"blob-value-dims", blob.buf, 3, len(blob.buf) - 4 - 3*8, blobDims},
	}
}

// A count read off the wire is a claim, not an allocation request: every
// counted body decodes cleanly when whole, and fails — producing nothing —
// when truncated anywhere or when its count exceeds what the remaining
// bytes could hold.
func TestCountedFramesBoundedByBytes(t *testing.T) {
	for _, f := range countedFrames() {
		t.Run(f.name, func(t *testing.T) {
			d := &decoder{buf: f.frame}
			if n := f.decode(d); n != f.count {
				t.Fatalf("clean frame decoded %d entries, want %d", n, f.count)
			}
			if err := d.finish(f.name); err != nil {
				t.Fatalf("clean frame rejected: %v", err)
			}
			for cut := 0; cut < len(f.frame); cut++ {
				d := &decoder{buf: f.frame[:cut]}
				n := f.decode(d)
				if err := d.finish(f.name); err == nil || n != 0 {
					t.Fatalf("frame cut to %d of %d bytes: %d entries, err %v", cut, len(f.frame), n, err)
				}
			}
			for _, claim := range []uint32{uint32(f.count) + 1, 1 << 20, 1<<31 - 1, 1 << 31, ^uint32(0)} {
				huge := append([]byte(nil), f.frame...)
				binary.LittleEndian.PutUint32(huge[f.at:], claim)
				d := &decoder{buf: huge}
				n := f.decode(d)
				if err := d.finish(f.name); err == nil || n != 0 {
					t.Fatalf("count %d over %d bytes: %d entries, err %v", claim, len(huge), n, err)
				}
			}
		})
	}
}

// The exported chunk frame pair: decodes only a frame that is exactly one
// valid chunk, and hands back columns that alias the frame (the caller
// copies what must outlive it).
func TestChunkFramePair(t *testing.T) {
	var c chunk.Chunk
	c.AppendInt(-7)
	c.AppendString("row")
	c.AppendBlob([]byte{1, 2, 3, 4}, 3, []int{1})
	frame, err := EncodeChunkFrame(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeChunkFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	r := got.Reader()
	if !r.Next() || r.Int() != -7 || !r.Next() || string(r.Bytes()) != "row" ||
		!r.Next() || r.Meta().Elem != 3 || len(r.Bytes()) != 4 || r.Next() {
		t.Fatalf("decoded chunk = %+v", got)
	}
	if _, err := DecodeChunkFrame(append(append([]byte(nil), frame...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeChunkFrame(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[4] = 99 // first kind tag: no such kind
	if _, err := DecodeChunkFrame(bad); err == nil {
		t.Fatal("chunk with an unknown row kind accepted")
	}
	for i := range frame {
		frame[i] = 0
	}
	if r := got.Reader(); !r.Next() || r.Kind() == chunk.KindInt {
		t.Fatal("decoded columns do not alias the frame: the aliasing contract changed, update its callers")
	}
}
