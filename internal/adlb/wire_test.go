package adlb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/mpi"
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
		encodeWorkItem(e, &workItem{Type: 1, Priority: 2, Target: 3, Payload: []byte("job")})
		frame, err := e.frame()
		if err != nil {
			t.Fatal(err)
		}
		d := &decoder{buf: frame}
		if w := decodeWorkItem(d, &arena{}); string(w.Payload) != "job" {
			t.Fatalf("payload = %q", w.Payload)
		}
		if err := d.finish("work item"); err != nil {
			t.Fatalf("clean frame rejected: %v", err)
		}

		d = &decoder{buf: append(append([]byte(nil), frame...), 0xAB)}
		decodeWorkItem(d, &arena{})
		if err := d.finish("work item"); err == nil {
			t.Fatal("trailing garbage accepted after work item")
		}
	})
	// A value's wire form is its one-row chunk.
	valueFrame := func(t *testing.T, v Value) []byte {
		t.Helper()
		c, err := oneRow(v)
		if err != nil {
			t.Fatal(err)
		}
		e := &encoder{}
		encodeChunk(e, &c)
		return e.buf
	}
	t.Run("value", func(t *testing.T) {
		frame := valueFrame(t, Value{Type: TypeBlob, Bytes: []byte{1, 2, 3}, Dims: []int{3}, Elem: 2})
		d := &decoder{buf: frame}
		c := decodedChunk(d)
		if err := d.finish("value"); err != nil || c.Len() != 1 {
			t.Fatalf("clean frame rejected: %v (%d rows)", err, c.Len())
		}

		d = &decoder{buf: append(append([]byte(nil), frame...), 0xCD, 0xEF)}
		decodedChunk(d)
		if err := d.finish("value"); err == nil {
			t.Fatal("trailing garbage accepted after value")
		}
	})
	t.Run("truncated-still-fails", func(t *testing.T) {
		frame := valueFrame(t, Value{Type: TypeString, Bytes: []byte("hello")})
		d := &decoder{buf: frame[:len(frame)-2]}
		decodedChunk(d)
		if err := d.finish("value"); err == nil {
			t.Fatal("truncated frame accepted")
		}
	})
}

// reqEntry is a write or a read as a Get's entry: op and the body body
// builds.
func reqEntry(op uint8, body func(e *encoder)) entry {
	e := &encoder{}
	e.u8(op)
	body(e)
	return entry{req: e.buf}
}

// storeEntry is a Store of c into id as a Get's entry.
func storeEntry(id int64, c chunk.Chunk) entry {
	return reqEntry(opStore, func(e *encoder) {
		e.i64(id)
		encodeChunk(e, &c)
	})
}

// rawSettle is s's entry without its length prefix, so a test can
// frame a settle the encoder would not: cut short, or with bytes after.
func rawSettle(s settle) []byte {
	e := &encoder{}
	encodeSettle(e, &s)
	return e.buf[4:]
}

// storeGet is a leased Get storing c into id 5, then settling lease 9
// and lease 10.
func storeGet(c chunk.Chunk) *getRequest {
	return &getRequest{typ: 1, flags: getFlagLeased, want: maxDelivery, entries: []entry{storeEntry(5, c), {settle: settle{lease: 9}}, {settle: settle{lease: 10}}}}
}

// departGet is a Leave: a Get that departs, storing c into id 5,
// settling lease 9 done and handing back lease 11, never started.
func departGet(c chunk.Chunk) *getRequest {
	return &getRequest{flags: getFlagDepart, entries: []entry{storeEntry(5, c), {settle: settle{lease: 9}}, {settle: settle{lease: 11, kind: settleHandedBack}}}}
}

// failGet is a Fail: a Get that wants nothing, settling lease 10 done
// and then lease 12 failed, retriably.
func failGet() *getRequest {
	return &getRequest{entries: []entry{{settle: settle{lease: 10}}, {settle: settle{lease: 12, kind: settleFailed, reason: "task exploded", retriable: true}}}}
}

// malformedGets are Gets no client builds, each a decode error: a settle
// of an unknown kind, an entry that is neither a request nor a settle, a
// settle with bytes after it in its entry, an item handed back by a Get
// that does not depart, a departing Get that wants work, and a read in a
// Get that wants work.
func malformedGets(c chunk.Chunk) []struct {
	name  string
	frame []byte
} {
	frame := func(g *getRequest) []byte {
		e := &encoder{}
		encodeGet(e, g)
		return e.buf
	}
	unknownKind := failGet()
	unknownKind.entries[1].settle.kind = settleHandedBack + 1
	notWrite := failGet()
	notWrite.entries[1] = entry{req: []byte{opGet}}
	trailing := failGet()
	trailing.entries[1] = entry{req: append(rawSettle(settle{lease: 12}), 0)}
	handedStaying := departGet(c)
	handedStaying.flags = getFlagLeased
	departWanting := departGet(c)
	departWanting.want = 1
	readWanting := storeGet(c)
	readWanting.entries = append(readWanting.entries, reqEntry(opRetrieveChunk, func(e *encoder) { encodeIDs(e, []int64{5}) }))
	return []struct {
		name  string
		frame []byte
	}{
		{"unknown kind", frame(unknownKind)},
		{"neither a write nor a settle", frame(notWrite)},
		{"a settle with bytes after it", frame(trailing)},
		{"handed back staying", frame(handedStaying)},
		{"departing wanting work", frame(departWanting)},
		{"a read wanting work", frame(readWanting)},
	}
}

// A Get carrying entries decodes to its parts: each write aliasing the
// frame, each settle with its kind and what it carries — a failed
// task's reason, an item handed back by a Get that departs. One cut
// short, one with an empty entry, one whose settle is cut short in its
// entry, one settling lease 0, one wanting more than maxDelivery items,
// one claiming more entries than it holds, one with an unknown flag and
// the malformedGets are decode errors, never a panic or a store.
func TestGetStoreDecode(t *testing.T) {
	frame := func(g *getRequest) []byte {
		e := &encoder{}
		encodeGet(e, g)
		return e.buf
	}
	one, err := oneRow(StringValue("result"))
	if err != nil {
		t.Fatal(err)
	}
	clean := frame(storeGet(one))
	d := &decoder{buf: clean}
	var g getRequest
	decodeGet(d, &g)
	if err := d.finish("get request"); err != nil {
		t.Fatalf("clean Get rejected: %v", err)
	}
	if !retainsRequestFrame(&g) || g.typ != 1 || g.want != maxDelivery || len(g.entries) != 3 {
		t.Fatalf("decoded %+v", g)
	}
	if w := g.entries[0].req; !bytes.Equal(w, storeEntry(5, one).req) {
		t.Fatalf("decoded store entry %x", w)
	}
	for i, lease := range []int64{9, 10} {
		if en := g.entries[1+i]; en.req != nil || en.settle.lease != lease || en.settle.kind != settleDone {
			t.Fatalf("decoded settle %+v, want lease %d done", en, lease)
		}
	}
	doneLease0 := storeGet(one)
	doneLease0.entries[1].settle.lease = 0
	lastLease0 := storeGet(one)
	lastLease0.entries[2].settle.lease = 0
	empty := storeGet(one)
	empty.entries[1] = entry{req: []byte{}}
	cutSettle := storeGet(one)
	cutSettle.entries[2] = entry{req: rawSettle(settle{lease: 10})[:5]}
	greedy := storeGet(one)
	greedy.want = maxDelivery + 1
	unknown := storeGet(one)
	unknown.flags |= 1 << 7
	overclaim := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(overclaim[getHeadBytes-5:], 4)
	bad := map[string][]byte{
		"truncated":    clean[:len(clean)-3],
		"empty entry":  frame(empty),
		"settle cut":   frame(cutSettle),
		"done lease 0": frame(doneLease0),
		"last lease 0": frame(lastLease0),
		"greedy":       frame(greedy),
		"unknown":      frame(unknown),
		"overclaim":    overclaim,
		"trailing":     append(append([]byte(nil), clean...), 0),
	}
	for _, m := range malformedGets(one) {
		bad[m.name] = m.frame
	}
	for name, f := range bad {
		d := &decoder{buf: f}
		decodeGet(d, &g)
		if err := d.finish("get request"); err == nil {
			t.Errorf("%s: malformed Get accepted", name)
		} else if len(g.entries) != 0 {
			t.Errorf("%s: a decode error left %d entries", name, len(g.entries))
		}
	}
	// A Get that only asks, and one that only settles.
	for _, plain := range []*getRequest{{typ: 1, want: 1}, {typ: 1, entries: []entry{{settle: settle{lease: 9}}}}} {
		d = &decoder{buf: frame(plain)}
		if decodeGet(d, &g); d.finish("get request") != nil || retainsRequestFrame(&g) || g.want != plain.want || len(g.entries) != len(plain.entries) {
			t.Fatalf("plain Get %+v: %+v, %v", plain, g, d.err)
		}
	}
	// A Fail and a Leave round-trip exactly, entry by entry.
	for _, want := range []*getRequest{failGet(), departGet(one)} {
		d = &decoder{buf: frame(want)}
		if decodeGet(d, &g); d.finish("get request") != nil || g.flags != want.flags || g.want != 0 || len(g.entries) != len(want.entries) {
			t.Fatalf("Get %+v decoded as %+v, %v", want, g, d.err)
		}
		for i, en := range g.entries {
			if w := want.entries[i]; en.settle != w.settle || !bytes.Equal(en.req, w.req) {
				t.Fatalf("entry %d decoded as %+v, want %+v", i, en, w)
			}
		}
	}
}

// dispatchGet hands g to s as client 0's request and returns the
// reply's error: nil for OK, or the refusal or error text it reads as.
func dispatchGet(t *testing.T, s *server, g *getRequest) error {
	t.Helper()
	e := &encoder{}
	e.u8(opGet)
	encodeGet(e, g)
	if err := s.dispatch(e.buf, mpi.Status{Source: 0, Tag: tagRequest}); err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	c, err := s.c.World().Comm(0)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := c.Recv(s.c.Rank(), tagResponse)
	if err != nil {
		t.Fatal(err)
	}
	_, err = checkStatus(&decoder{buf: data}, "get")
	return err
}

// A store whose value is not one row decodes, and is refused as it
// applies: a Get carrying one with no row or two is refused with the
// lone Store's text, nothing is stored, and the write after it is not
// applied.
func TestGetStoreRowCountRefused(t *testing.T) {
	const x, later = int64(heldBase), int64(heldBase + 1)
	for _, c := range []chunk.Chunk{{}, intChunk(1, 2)} {
		s := testServer(t, 2, 1, 0, Config{})
		create := reqEntry(opCreate, func(e *encoder) {
			e.i64(later)
			e.u8(uint8(TypeInteger))
		})
		err := dispatchGet(t, s, &getRequest{entries: []entry{storeEntry(x, c), create}})
		want := fmt.Sprintf("adlb: store: store: id %d: %d rows, want 1", x, c.Len())
		if err == nil || err.Error() != want {
			t.Errorf("%d rows: %v, want %q", c.Len(), err, want)
		}
		if n := storeSize(s); n != 0 {
			t.Errorf("%d rows: the store holds %d ids, want none", c.Len(), n)
		}
	}
}

// A refused write is charged to the next done settle, not to a failed
// settle of another lease between them: a Fail of an ended lease sent
// behind the running task's writes is refused as unknown, and the
// refusal fails the running task when it settles.
func TestRefusalChargedToNextDoneSettle(t *testing.T) {
	const x = int64(heldBase)
	s := testServer(t, 2, 1, 0, Config{Stats: &Stats{}})
	s.leases[5] = lease{w: &workItem{Type: typeWork, Target: AnyRank, Payload: []byte("task")}}
	create := reqEntry(opCreate, func(e *encoder) {
		e.i64(x)
		e.u8(uint8(TypeInteger))
	})
	err := dispatchGet(t, s, &getRequest{entries: []entry{
		create, storeEntry(x, intChunk(1)), storeEntry(x, intChunk(2)),
		{settle: settle{lease: 77, kind: settleFailed, reason: "late", retriable: true}},
		{settle: settle{lease: 5}},
	}})
	if want := "adlb: get: fail: unknown lease 77"; err == nil || err.Error() != want {
		t.Fatalf("reply: %v, want %q", err, want)
	}
	q := s.untargeted[typeWork]
	if snap := s.stats().Snapshot(); snap.Requeued != 1 || q == nil || q.len() != 1 {
		t.Fatalf("Requeued %d, want lease 5's task requeued by the refusal", snap.Requeued)
	}
}

// A Get reply's item count is checked against the Get: more items than
// it wanted, none for a Get that wanted work, any for one that only
// settled or departed, and a leased item with no lease are decode
// errors. A failed settle the server refuses comes back as the Fail's
// error, and a refused write as the Get's, each text unchanged.
func TestGetReplyDecode(t *testing.T) {
	reply := func(leased bool, items ...delivered) []byte {
		e := &encoder{}
		e.u32(uint32(len(items)))
		for i := range items {
			encodeDelivered(e, leased, &items[i])
		}
		return e.buf
	}
	rows := intChunk(4, 5)
	item := func(lease int64) delivered {
		return delivered{lease: lease, payload: []byte("task"), ids: []int64{40, 50}, rows: rows}
	}
	three := reply(true, item(1), item(2), item(3))
	d := &decoder{buf: three}
	got := decodeDelivery(d, true, maxDelivery, nil)
	if err := d.finish("get reply"); err != nil || len(got) != 3 {
		t.Fatalf("three items: %d decoded, %v", len(got), err)
	}
	for i, it := range got {
		if it.lease != int64(i+1) || string(it.payload) != "task" || !slices.Equal(it.ids, []int64{40, 50}) || it.rows.Len() != 2 {
			t.Fatalf("item %d decoded as %+v", i, it)
		}
	}
	for _, c := range []struct {
		name   string
		frame  []byte
		leased bool
		want   int
	}{
		{"more than wanted", three, true, 2},
		{"none for a Get wanting work", reply(true), true, maxDelivery},
		{"some for a Get that settles", reply(true, item(1)), true, 0},
		{"some for a Get that departs", reply(false, item(0)), false, 0},
		{"a leased item with lease 0", reply(true, item(1), item(0)), true, maxDelivery},
		{"two for a Get not leased", reply(false, item(0), item(0)), false, 1},
	} {
		d := &decoder{buf: c.frame}
		if got := decodeDelivery(d, c.leased, c.want, got); d.finish(c.name) == nil || len(got) != 0 {
			t.Errorf("%s: accepted (%d items)", c.name, len(got))
		}
	}
	d = &decoder{buf: reply(true)}
	if got := decodeDelivery(d, true, 0, nil); d.finish("settle reply") != nil || len(got) != 0 {
		t.Fatalf("a settle-only reply: %d items, %v", len(got), d.err)
	}
	refusal := &encoder{}
	refusal.u8(stError)
	refusal.str("fail: unknown lease 12")
	d = &decoder{buf: refusal.buf}
	if _, err := checkStatus(d, "fail"); err == nil || err.Error() != "adlb: fail: fail: unknown lease 12" || d.finish("fail refusal") != nil {
		t.Fatalf("a refused Fail reads %v", err)
	}
	refusal = &encoder{}
	refusal.u8(stRefused)
	refusal.str("adlb: insert: insert: id 5 is not a container")
	d = &decoder{buf: refusal.buf}
	if _, err := checkStatus(d, "get"); err == nil || err.Error() != "adlb: insert: insert: id 5 is not a container" || d.finish("write refusal") != nil {
		t.Fatalf("a Get refused at a write reads %v", err)
	}
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

// countedFrames builds one of each: a retrieve_chunk request (an id
// list), a delivered item's payload (a length-prefixed byte field), an
// enumerate response (subscript/member pairs), a blob value (its row's
// dims table, the last field of its chunk frame), a Put's work item (its
// wait ids, the last field), a delivered item's rows (their ids, then
// one chunk), a Get's settles, a Get reply's items and a Leave's entries:
// an ended task's store and settles, and the items it hands back.
func countedFrames() []countedFrame {
	gather := &encoder{}
	encodeIDs(gather, []int64{7, -9, 1 << 40, 0})
	payload := &encoder{}
	payload.bytes([]byte{1, 0, 0, 1})
	pairs := &encoder{}
	pairs.u32(3)
	for i, sub := range []string{"0", "", "a long subscript"} {
		pairs.str(sub)
		pairs.i64(int64(100 + i))
	}
	blob := &encoder{}
	blobRow, _ := oneRow(Value{Type: TypeBlob, Bytes: []byte{1, 2}, Dims: []int{2, 1, 1}, Elem: 1})
	encodeChunk(blob, &blobRow)
	blobDims := func(d *decoder) int {
		if c := decodedChunk(d); len(c.Meta) == 1 {
			return len(c.Meta[0].Dims)
		}
		return 0
	}
	put := &encoder{}
	encodeWorkItem(put, &workItem{Type: 1, Priority: 2, Target: AnyRank, Payload: []byte("job"), Inputs: []int64{5, -6, 1 << 40}})
	rows := &encoder{}
	var rowChunk chunk.Chunk
	rowChunk.AppendInt(-7)
	rowChunk.AppendString("row")
	encodeRows(rows, []int64{11, 12}, &rowChunk)
	res, _ := oneRow(StringValue("result"))
	get := &encoder{}
	encodeGet(get, &getRequest{typ: 1, flags: getFlagLeased, want: 1, entries: []entry{{settle: settle{lease: 3}}, {settle: settle{lease: 4}}}})
	reply := &encoder{}
	reply.u32(2)
	for _, lease := range []int64{5, 6} {
		encodeDelivered(reply, true, &delivered{lease: lease, payload: []byte("job"), ids: []int64{11, 12}, rows: rowChunk})
	}
	leave := &encoder{}
	encodeGet(leave, &getRequest{flags: getFlagDepart, entries: []entry{storeEntry(7, res), {settle: settle{lease: 1}}, {settle: settle{lease: 2}},
		{settle: settle{lease: 3, kind: settleHandedBack}}, {settle: settle{lease: 4, kind: settleHandedBack}}, {settle: settle{lease: 5, kind: settleHandedBack}}}})
	return []countedFrame{
		{"get-settles", get.buf, 2, getHeadBytes - 5, func(d *decoder) int {
			var g getRequest
			decodeGet(d, &g)
			return len(g.entries)
		}},
		{"get-reply-items", reply.buf, 2, 0, func(d *decoder) int { return len(decodeDelivery(d, true, maxDelivery, nil)) }},
		{"leave-unstarted", leave.buf, 6, getHeadBytes - 5, func(d *decoder) int {
			var g getRequest
			decodeGet(d, &g)
			return len(g.entries)
		}},
		{"put-wait-ids", put.buf, 3, 4*4 + 4 + 3, func(d *decoder) int { return len(decodeWorkItem(d, &arena{}).Inputs) }},
		{"item-rows", rows.buf, 2, 0, func(d *decoder) int {
			var ids []int64
			decodeRows(d, &ids, &chunk.Chunk{})
			return len(ids)
		}},
		{"retrieve-chunk-request", gather.buf, 4, 0, func(d *decoder) int { return len(decodeIDs(d, "retrieve_chunk ids")) }},
		{"item-payload", payload.buf, 4, 0, func(d *decoder) int { return len(d.bytes()) }},
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
	frame, err := AppendChunkFrame(nil, &c)
	if err != nil {
		t.Fatal(err)
	}
	var got chunk.Chunk
	if err := DecodeChunkFrame(frame, &got); err != nil {
		t.Fatal(err)
	}
	r := got.Reader()
	if !r.Next() || r.Int() != -7 || !r.Next() || string(r.Bytes()) != "row" ||
		!r.Next() || r.Meta().Elem != 3 || len(r.Bytes()) != 4 || r.Next() {
		t.Fatalf("decoded chunk = %+v", got)
	}
	if err := DecodeChunkFrame(append(append([]byte(nil), frame...), 0), &chunk.Chunk{}); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if err := DecodeChunkFrame(frame[:len(frame)-1], &chunk.Chunk{}); err == nil {
		t.Fatal("truncated frame accepted")
	}
	bad := append([]byte(nil), frame...)
	bad[4] = 99 // first kind tag: no such kind
	if err := DecodeChunkFrame(bad, &chunk.Chunk{}); err == nil {
		t.Fatal("chunk with an unknown row kind accepted")
	}
	for i := range frame {
		frame[i] = 0
	}
	if r := got.Reader(); !r.Next() || r.Kind() == chunk.KindInt {
		t.Fatal("decoded columns do not alias the frame: the aliasing contract changed, update its callers")
	}
}

// TestDecodePairsAllocsFlatInN: an enumerate answer decodes into its
// pairs slice and one string its subscripts share, whatever its length.
func TestDecodePairsAllocsFlatInN(t *testing.T) {
	answer := func(n int) []byte {
		e := &encoder{}
		e.u32(uint32(n))
		for i := 0; i < n; i++ {
			e.str(fmt.Sprint(i))
			e.i64(int64(1000 + i))
		}
		e.u32(0) // the reply's item count, after the answer
		return e.buf
	}
	allocs := map[int]float64{}
	for _, n := range []int{10, 1000} {
		frame := answer(n)
		d := decoder{buf: frame}
		pairs := decodePairs(&d)
		if d.err != nil || len(pairs) != n || pairs[n-1] != (Pair{Subscript: fmt.Sprint(n - 1), Member: int64(999 + n)}) {
			t.Fatalf("n=%d: decoded %d pairs, last %+v, err %v", n, len(pairs), pairs[len(pairs)-1], d.err)
		}
		for i := range frame {
			frame[i] = 0
		}
		if pairs[0].Subscript != "0" {
			t.Fatalf("n=%d: a subscript aliases the frame: %q", n, pairs[0].Subscript)
		}
		frame = answer(n)
		allocs[n] = testing.AllocsPerRun(20, func() {
			d := decoder{buf: frame}
			decodePairs(&d)
		})
	}
	if allocs[10] != allocs[1000] || allocs[1000] > 2 {
		t.Fatalf("decoding an enumerate answer allocates %v times at n = 10, 1000; want the same, at most 2", allocs)
	}
}

// TestEncodeRowIsTheRowChunk: Store's encodeRow writes the bytes the
// one-row chunk of the same value encodes to, and refuses a value of no
// row, leaving the frame as it was.
func TestEncodeRowIsTheRowChunk(t *testing.T) {
	for _, v := range []Value{VoidValue(), IntValue(-7), FloatValue(2.5), StringValue(""), StringValue("row"),
		BlobValue([]byte{1, 2, 3}), {Type: TypeBlob, Elem: 3, Bytes: make([]byte, 24), Dims: []int{3, 1}}} {
		var c chunk.Chunk
		if err := row(&v, &c); err != nil {
			t.Fatal(err)
		}
		want, got := &encoder{}, &encoder{}
		encodeChunk(want, &c)
		encodeRow(got, &v)
		if got.err != nil || !bytes.Equal(got.buf, want.buf) {
			t.Fatalf("%v value: encodeRow wrote %x (%v), the row chunk %x", v.Type, got.buf, got.err, want.buf)
		}
	}
	for _, v := range []Value{{Type: TypeFloat, Bytes: []byte{1, 2, 3}}, {Type: TypeContainer}} {
		e := &encoder{}
		at := e.begin()
		encodeRow(e, &v)
		if err := e.end(at); err == nil || len(e.buf) != 0 {
			t.Fatalf("%v value of %d bytes encoded (%x), want refused", v.Type, len(v.Bytes), e.buf)
		}
	}
}
