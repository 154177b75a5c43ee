package mpi

import (
	"bytes"
	"testing"
)

// TestFramePoolReuseAliasing pins the transport half of the zero-copy
// contract deterministically: after Release, the next fitting Send
// overwrites the released buffer in place, so any slice still aliasing
// it observes the new payload. Both ranks are driven from one goroutine
// (Send is eager and never blocks), so there is no scheduling race: the
// released frame is provably the only pooled buffer large enough, and
// reuse is guaranteed.
func TestFramePoolReuseAliasing(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)

	a := bytes.Repeat([]byte{0xAA}, 4096)
	if err := c1.Send(0, 7, a); err != nil {
		t.Fatal(err)
	}
	buf, _, err := c0.Recv(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := buf // a consumer's zero-copy view into the frame
	if !bytes.Equal(p, a) {
		t.Fatalf("payload differs before release")
	}

	// Before Release, further traffic must not touch the frame.
	if err := c1.Send(0, 7, bytes.Repeat([]byte{0xCC}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c0.Recv(1, 7); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, a) {
		t.Fatalf("unreleased frame was overwritten by unrelated traffic")
	}

	// After Release, the next fitting Send reuses the frame: the view
	// flips to the new payload — this is exactly why zero-copy consumers
	// must finish with their slices before the release point.
	c0.Release(buf)
	b := bytes.Repeat([]byte{0xBB}, 4096)
	if err := c1.Send(0, 7, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, b) {
		t.Fatalf("released frame was not reused for the next fitting send")
	}
	buf2, _, err := c0.Recv(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if &buf2[0] != &p[0] {
		t.Fatalf("reused frame has a different backing array")
	}

	gets, hits, puts := w.FramePoolStats()
	if gets == 0 || hits == 0 || puts == 0 {
		t.Fatalf("pool counters gets=%d hits=%d puts=%d: reuse not observed", gets, hits, puts)
	}
}

// TestFramePoolSmallFramesRoundUp pins the minFrameCap policy: tiny
// sends draw frames with at least minFrameCap capacity, so small
// request/response traffic of varying sizes recycles one buffer instead
// of fragmenting the pool by exact length.
func TestFramePoolSmallFramesRoundUp(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)

	if err := c1.Send(0, 1, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	buf, _, err := c0.Recv(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cap(buf) < minFrameCap {
		t.Fatalf("small frame cap = %d, want >= %d", cap(buf), minFrameCap)
	}
	c0.Release(buf)

	// A larger-but-still-small send must reuse the rounded-up frame.
	if err := c1.Send(0, 1, make([]byte, minFrameCap-1)); err != nil {
		t.Fatal(err)
	}
	buf2, _, err := c0.Recv(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if &buf2[0] != &buf[0] {
		t.Fatalf("rounded-up small frame was not reused")
	}
	_, hits, _ := w.FramePoolStats()
	if hits == 0 {
		t.Fatalf("expected a pool hit for the rounded-up frame")
	}
}

// TestFramePoolBestFit pins the draw policy: the smallest fitting frame,
// the most recently released among equals, and never one more than
// twice the size of a fresh frame for the draw — a small message must
// not take, or pin, a frame sized for a blob.
func TestFramePoolBestFit(t *testing.T) {
	w, err := NewWorld(1)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := w.Comm(0)
	blob := c.Frame(8 << 20)
	older, newer := c.Frame(4096), c.Frame(4096)
	c.Release(older)
	c.Release(blob)
	c.Release(newer)

	if f := c.Frame(3000); cap(f) != 4096 || &f[:1][0] != &newer[:1][0] {
		t.Fatalf("a 3000-byte draw took a %d-byte frame, want the 4096-byte one released last", cap(f))
	}
	if f := c.Frame(300); cap(f) > 2*minFrameCap {
		t.Fatalf("a 300-byte draw took a %d-byte frame, want a fresh one", cap(f))
	}
	if f := c.Frame(5 << 20); cap(f) != 8<<20 {
		t.Fatalf("a 5 MiB draw took a %d-byte frame, want the released 8 MiB one", cap(f))
	}
}
