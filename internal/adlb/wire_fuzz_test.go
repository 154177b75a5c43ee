package adlb

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/chunk"
)

// FuzzWireRoundTrip drives the wire codec two ways with the same input:
//
//  1. Arbitrary bytes fed straight to the decoders must never panic —
//     every malformed frame has to surface through decoder.err/finish.
//  2. A message synthesized from the input must encode and decode back to
//     itself (round-trip identity), with finish() accepting the clean
//     frame and rejecting it once a trailing byte is appended.
//
// Run with: go test -fuzz=FuzzWireRoundTrip ./internal/adlb
func FuzzWireRoundTrip(f *testing.F) {
	f.Add([]byte{}, int64(0), uint8(0))
	f.Add([]byte("payload"), int64(42), uint8(5))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, int64(-1), uint8(2))
	// A one-row store request: the id, then the value's row.
	e := &encoder{}
	e.i64(7)
	storeRow, _ := row(Value{Type: TypeBlob, Bytes: []byte{1, 2}, Dims: []int{2, 1}, Elem: 1})
	encodeChunk(e, storeRow)
	f.Add(e.buf, int64(7), uint8(6))
	e = &encoder{}
	var seedChunk chunk.Chunk
	seedChunk.AppendInt(1)
	seedChunk.AppendString("s")
	seedChunk.AppendBlob([]byte{3}, 2, []int{1})
	encodeChunk(e, seedChunk)
	f.Add(e.buf, int64(3), uint8(1))
	// The counted bodies (batched subscribe request and response, the
	// enumerate response, a blob row's dims): whole, cut short, and
	// claiming more entries than the frame has bytes for.
	for _, cf := range countedFrames() {
		f.Add(cf.frame, int64(cf.count), uint8(0))
		f.Add(cf.frame[:len(cf.frame)-3], int64(cf.count), uint8(0))
		huge := append([]byte(nil), cf.frame...)
		binary.LittleEndian.PutUint32(huge[cf.at:], 1<<31-1)
		f.Add(huge, int64(cf.count), uint8(0))
	}

	f.Fuzz(func(t *testing.T, raw []byte, n int64, tag uint8) {
		// 1. Decoder robustness: arbitrary input, all decode shapes.
		for _, run := range []func(d *decoder){
			func(d *decoder) { decodeWorkItem(d) },
			func(d *decoder) { d.u8(); d.str(); d.i64(); d.boolean() },
			func(d *decoder) {
				d.i32()
				if ids := decodeIDs(d, "fuzz ids"); len(ids) > len(raw)/8 {
					t.Fatalf("%d ids out of %d bytes", len(ids), len(raw))
				}
			},
			func(d *decoder) {
				if pairs := decodePairs(d); len(pairs) > len(raw)/12 {
					t.Fatalf("%d pairs out of %d bytes", len(pairs), len(raw))
				}
			},
			func(d *decoder) {
				// Chunk frames: a hostile frame must either decode to a
				// chunk whose invariants hold (Validate ran inside
				// decodeChunk) or set the decoder error — readers over the
				// result must never index out of bounds.
				c := decodeChunk(d)
				if d.err == nil {
					r := c.Reader()
					for r.Next() {
						switch r.Kind() {
						case chunk.KindInt:
							r.Int()
						case chunk.KindFloat:
							r.Float()
						case chunk.KindString:
							r.Bytes()
						case chunk.KindBlob:
							r.Bytes()
							r.Meta()
						}
					}
				}
			},
		} {
			d := &decoder{buf: raw}
			run(d) // must not panic
			_ = d.finish("fuzz")
		}
		DecodeNotification(raw)

		// 2. Round-trip identity for a message built from the input.
		w := workItem{Type: int(int32(n)), Priority: int(tag), Target: int(int32(n >> 32)), Payload: raw}
		e := &encoder{}
		encodeWorkItem(e, w)
		e.i64(n)
		e.boolean(tag&1 == 1)
		frame, err := e.frame()
		if err != nil {
			t.Fatalf("encode failed on plausible message: %v", err)
		}

		d := &decoder{buf: frame}
		gotW := decodeWorkItem(d)
		gotN := d.i64()
		gotB := d.boolean()
		if err := d.finish("round trip"); err != nil {
			t.Fatalf("clean round trip rejected: %v", err)
		}
		if gotW.Type != w.Type || gotW.Priority != w.Priority || gotW.Target != w.Target ||
			!bytes.Equal(gotW.Payload, w.Payload) {
			t.Fatalf("work item round trip: got %+v want %+v", gotW, w)
		}
		if gotN != n || gotB != (tag&1 == 1) {
			t.Fatalf("scalar round trip: got %d/%v want %d/%v", gotN, gotB, n, tag&1 == 1)
		}

		// Trailing garbage after the same clean frame must fail loudly.
		d = &decoder{buf: append(append([]byte(nil), frame...), 0x5A)}
		decodeWorkItem(d)
		d.i64()
		d.boolean()
		if err := d.finish("round trip"); err == nil {
			t.Fatal("trailing garbage accepted")
		}

		// 3. Chunk frame round-trip identity: a chunk synthesized from the
		// input must survive encode -> decode bit-exactly, and reject a
		// trailing byte.
		var ck chunk.Chunk
		ck.AppendInt(n)
		ck.AppendFloat(float64(n) / 3)
		ck.AppendBytes(raw)
		ck.AppendBlob(raw, tag, []int{len(raw), 1})
		ck.AppendVoid()
		e = &encoder{}
		encodeChunk(e, ck)
		frame, err = e.frame()
		if err != nil {
			t.Fatalf("chunk encode failed: %v", err)
		}
		d = &decoder{buf: frame}
		got := decodeChunk(d)
		if err := d.finish("chunk round trip"); err != nil {
			t.Fatalf("clean chunk round trip rejected: %v", err)
		}
		if !bytes.Equal(got.Kinds, ck.Kinds) || !bytes.Equal(got.Num, ck.Num) ||
			!bytes.Equal(got.Raw, ck.Raw) || len(got.Off) != len(ck.Off) ||
			len(got.Meta) != len(ck.Meta) {
			t.Fatalf("chunk round trip: got %+v want %+v", got, ck)
		}
		for i := range ck.Off {
			if got.Off[i] != ck.Off[i] {
				t.Fatalf("chunk offsets: got %v want %v", got.Off, ck.Off)
			}
		}
		for i := range ck.Meta {
			if got.Meta[i].Elem != ck.Meta[i].Elem || len(got.Meta[i].Dims) != len(ck.Meta[i].Dims) {
				t.Fatalf("chunk meta: got %+v want %+v", got.Meta, ck.Meta)
			}
			for j := range ck.Meta[i].Dims {
				if got.Meta[i].Dims[j] != ck.Meta[i].Dims[j] {
					t.Fatalf("chunk dims: got %v want %v", got.Meta[i].Dims, ck.Meta[i].Dims)
				}
			}
		}
		d = &decoder{buf: append(append([]byte(nil), frame...), 0x5A)}
		decodeChunk(d)
		if err := d.finish("chunk round trip"); err == nil {
			t.Fatal("chunk trailing garbage accepted")
		}
	})
}
