package adlb

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/mpi"
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

// encoder builds one frame. Through a Comm (c set) the frame is drawn
// from the world's frame pool and handed over by send, so a message is
// built in the frame it travels in; it grows only through the pool,
// once when a builder knows the size up front (grow), by doubling
// otherwise. With c nil it is a plain heap buffer (EncodeChunkFrame,
// tests).
type encoder struct {
	c   *mpi.Comm
	buf []byte
	// err is sticky: the first encoding failure (an unframeable field)
	// poisons the encoder, and callers must check it before sending.
	err error
}

func (e *encoder) u8(v uint8) {
	e.grow(1)
	e.buf = append(e.buf, v)
}
func (e *encoder) u32(v uint32) {
	e.grow(4)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}
func (e *encoder) u64(v uint64) {
	e.grow(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
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
	e.grow(4 + len(v))
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
	e.grow(4 + len(v))
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
// front is built in one frame.
func (e *encoder) grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.regrow(n)
	}
}

// regrow moves the frame to one with room for n more bytes: at least
// twice the old capacity, drawn from the pool when e has a Comm, and
// the old frame goes back to the pool.
func (e *encoder) regrow(n int) {
	if e.c == nil {
		e.buf = slices.Grow(e.buf, n)
		return
	}
	buf := append(e.c.Frame(max(len(e.buf)+n, 2*cap(e.buf))), e.buf...)
	e.c.Release(e.buf)
	e.buf = buf
}

// size is the number of bytes encoded so far.
func (e *encoder) size() int { return len(e.buf) }

// reserve appends n zero bytes, room for a field that patch fills in
// once its value is known.
func (e *encoder) reserve(n int) {
	e.grow(n)
	e.buf = append(e.buf, make([]byte, n)...)
}

// patch returns an encoder over the n bytes at off, which reserve left,
// for the caller to encode exactly those n bytes into.
func (e *encoder) patch(off, n int) encoder { return encoder{buf: e.buf[off : off : off+n]} }

// truncate drops what was encoded after the first n bytes.
func (e *encoder) truncate(n int) { e.buf = e.buf[:n] }

func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// frame returns the encoded message, or the first encoding error.
func (e *encoder) frame() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// send hands the frame to dest with tag, and leaves e empty: the receiver
// owns the frame now. Every send site goes through it: an encoding error
// sends nothing and puts the frame back in the pool, so an unframeable
// field never reaches the transport as a corrupted frame.
func (e *encoder) send(dest, tag int) error {
	buf, err := e.buf, e.err
	e.buf, e.err = nil, nil
	if err != nil {
		e.c.Release(buf)
		return err
	}
	return e.c.SendFrame(dest, tag, buf)
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
