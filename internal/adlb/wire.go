package adlb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// The ADLB wire format is a compact, hand-rolled binary encoding: the real
// library ships C structs over MPI; we ship length-prefixed fields over the
// simulated transport. All integers are little-endian.

// maxFieldBytes bounds the length of a single length-prefixed field. The
// prefix is a u32, so anything longer cannot be framed; the encoder
// rejects it with an error instead of silently truncating the length (and
// thereby corrupting every field after it). A uint64 so the comparison is
// exact on 32-bit platforms (where int(^uint32(0)) would wrap negative);
// a variable only so tests can lower it without allocating 4 GiB payloads.
var maxFieldBytes uint64 = math.MaxUint32

type encoder struct {
	buf []byte
	// err is sticky: the first encoding failure (an unframeable field)
	// poisons the encoder, and callers must check it before sending.
	err error
}

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	e.buf = append(e.buf, b[:]...)
}
func (e *encoder) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}
func (e *encoder) i32(v int32) { e.u32(uint32(v)) }
func (e *encoder) i64(v int64) { e.u64(uint64(v)) }
func (e *encoder) bytes(v []byte) {
	if uint64(len(v)) > maxFieldBytes {
		if e.err == nil {
			e.err = fmt.Errorf("adlb: wire encode: %d-byte field overflows the u32 length prefix", len(v))
		}
		return
	}
	e.u32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}
func (e *encoder) str(v string) {
	if uint64(len(v)) > maxFieldBytes {
		if e.err == nil {
			e.err = fmt.Errorf("adlb: wire encode: %d-byte string overflows the u32 length prefix", len(v))
		}
		return
	}
	e.u32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// begin starts a length-prefixed field whose content the caller then
// encodes piece by piece, and returns where it starts for end.
func (e *encoder) begin() int {
	at := len(e.buf)
	e.u32(0)
	return at
}

// end closes the field begin started at: it sets the length prefix, or,
// when the field failed to encode or overflows the prefix, removes it,
// clears the sticky error and returns that error, so the fields before
// it stay usable.
func (e *encoder) end(at int) error {
	n := uint64(len(e.buf) - at - 4)
	if e.err == nil && n > maxFieldBytes {
		e.err = fmt.Errorf("adlb: wire encode: %d-byte field overflows the u32 length prefix", n)
	}
	if err := e.err; err != nil {
		e.buf, e.err = e.buf[:at], nil
		return err
	}
	binary.LittleEndian.PutUint32(e.buf[at:], uint32(n))
	return nil
}

// grow makes room for n more bytes, so a frame whose size is known up
// front is built in one allocation.
func (e *encoder) grow(n int) { e.buf = slices.Grow(e.buf, n) }

// size is the number of bytes encoded so far.
func (e *encoder) size() int { return len(e.buf) }

// reserve appends n zero bytes, room for a field that patch fills in
// once its value is known.
func (e *encoder) reserve(n int) { e.buf = append(e.buf, make([]byte, n)...) }

// patch encodes fill over the n bytes at off, which reserve left. fill
// must encode exactly n bytes; anything else is a sticky error.
func (e *encoder) patch(off, n int, fill func(*encoder)) {
	p := encoder{buf: e.buf[off : off : off+n]}
	fill(&p)
	if len(p.buf) != n && e.err == nil {
		e.err = fmt.Errorf("adlb: wire encode: a %d-byte patch over %d reserved bytes", len(p.buf), n)
	}
}

// truncate drops what was encoded after the first n bytes.
func (e *encoder) truncate(n int) { e.buf = e.buf[:n] }

// reset empties e for reuse, keeping its buffer unless it has grown
// past maxRetainedEncoder (a one-off giant frame).
func (e *encoder) reset() {
	e.buf, e.err = e.buf[:0], nil
	if cap(e.buf) > maxRetainedEncoder {
		e.buf = nil
	}
}

func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// frame returns the encoded message, or the first encoding error. Every
// send site goes through it so an unframeable field can never reach the
// transport as a corrupted frame.
func (e *encoder) frame() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// encoderPool recycles encoder scratch across RPCs: the frame is copied
// onto the transport by mpi.Send, so an encoder's buffer is dead the
// moment Send returns and the very next build on the same rank can reuse
// it. Ownership rule: getEncoder -> build -> frame() -> Send -> putEncoder;
// an encoder must not be put back while its frame() result is still
// referenced.
var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// maxRetainedEncoder bounds the scratch a pooled encoder may keep; a
// larger buffer (a one-off giant frame) is dropped rather than parked.
const maxRetainedEncoder = 32 << 20

func getEncoder() *encoder {
	e := encoderPool.Get().(*encoder)
	e.buf = e.buf[:0]
	e.err = nil
	return e
}

func putEncoder(e *encoder) {
	if cap(e.buf) > maxRetainedEncoder {
		return
	}
	encoderPool.Put(e)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("adlb: wire decode: truncated %s at offset %d", what, d.off)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i32() int32 { return int32(d.u32()) }
func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("bytes")
		return nil
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v
}

func (d *decoder) str() string { return string(d.bytes()) }

// count reads a u32 entry count and checks it against the bytes left in
// the frame, each entry needing at least minBytes: a claimed count beyond
// the frame is malformed input, not an allocation request. Division keeps
// the bound overflow-free on 32-bit ints. It returns 0 once the decoder
// has failed, so callers allocate only for a count the frame can hold.
func (d *decoder) count(minBytes int, what string) int {
	n := int(d.u32())
	if d.err == nil && (n < 0 || n > (len(d.buf)-d.off)/minBytes) {
		d.fail(what)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *decoder) boolean() bool { return d.u8() != 0 }

// finish reports the first decode error, or an error if decoding left
// trailing bytes unconsumed. A fully decoded message must account for
// every byte of its frame: trailing garbage means the sender and receiver
// disagree about the message layout, and silently ignoring it hides
// framing bugs until they corrupt something subtler.
func (d *decoder) finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("adlb: wire decode: %d trailing byte(s) after %s", len(d.buf)-d.off, what)
	}
	return nil
}
