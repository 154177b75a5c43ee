package adlb

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/chunk"
	"repro/internal/mpi"
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
	storeRow, _ := oneRow(Value{Type: TypeBlob, Bytes: []byte{1, 2}, Dims: []int{2, 1}, Elem: 1})
	encodeChunk(e, &storeRow)
	f.Add(e.buf, int64(7), uint8(6))
	e = &encoder{}
	var seedChunk chunk.Chunk
	seedChunk.AppendInt(1)
	seedChunk.AppendString("s")
	seedChunk.AppendBlob([]byte{3}, 2, []int{1})
	encodeChunk(e, &seedChunk)
	f.Add(e.buf, int64(3), uint8(1))
	// A Put of a work rule: the item with its wait ids.
	e = &encoder{}
	encodeWorkItem(e, &workItem{Type: 1, Target: AnyRank, Payload: []byte("sw:vunpack 9 float 7"), Inputs: []int64{7, 7, 1 << 33}})
	f.Add(e.buf, int64(7), uint8(2))
	// A leased Get reply of two items, each carrying its inputs' rows, and
	// one claiming more items than a Get wants.
	e = &encoder{}
	e.u8(stOK)
	e.u32(2)
	for _, lease := range []int64{3, 4} {
		encodeDelivered(e, true, &delivered{lease: lease, payload: []byte("sw:vunpack 5 float 4"), ids: []int64{4, 8, 4}, rows: seedChunk})
	}
	f.Add(e.buf, int64(3), uint8(3))
	binary.LittleEndian.PutUint32(e.buf[1:], maxDelivery+1)
	f.Add(e.buf, int64(3), uint8(3))
	// A leased Get carrying a store and its settled tasks: whole, cut
	// short, claiming a hostile count of entries, storing three rows, and
	// settling no lease.
	e = &encoder{}
	encodeGet(e, storeGet(storeRow))
	f.Add(e.buf, int64(9), uint8(4))
	f.Add(e.buf[:len(e.buf)-5], int64(9), uint8(4))
	binary.LittleEndian.PutUint32(e.buf[getHeadBytes-5:], 1<<31-1)
	f.Add(e.buf, int64(9), uint8(4))
	e = &encoder{}
	encodeGet(e, storeGet(seedChunk))
	f.Add(e.buf, int64(9), uint8(4))
	e = &encoder{}
	encodeGet(e, &getRequest{typ: 1, want: 1, entries: []entry{storeEntry(5, storeRow), {}}})
	f.Add(e.buf, int64(0), uint8(4))
	// A Leave: a Get that departs, storing a task's result, settling it
	// done and handing back an item never started.
	e = &encoder{}
	encodeGet(e, departGet(storeRow))
	f.Add(e.buf, int64(2), uint8(5))
	// The counted bodies (a Put's wait ids, a delivered item's rows and
	// payload, a retrieve_chunk request, the enumerate response, a blob
	// row's dims): whole, cut short, and claiming more entries than
	// the frame has bytes for.
	for _, cf := range countedFrames() {
		f.Add(cf.frame, int64(cf.count), uint8(0))
		f.Add(cf.frame[:len(cf.frame)-3], int64(cf.count), uint8(0))
		huge := append([]byte(nil), cf.frame...)
		binary.LittleEndian.PutUint32(huge[cf.at:], 1<<31-1)
		f.Add(huge, int64(cf.count), uint8(0))
	}
	// A Fail: a Get that wants nothing, the failed task after one done;
	// and the Gets no client builds (see TestGetStoreDecode).
	e = &encoder{}
	encodeGet(e, failGet())
	f.Add(e.buf, int64(7), uint8(6))
	for _, bad := range malformedGets(storeRow) {
		f.Add(bad.frame, int64(7), uint8(7))
	}

	f.Fuzz(func(t *testing.T, raw []byte, n int64, tag uint8) {
		// 1. Decoder robustness: arbitrary input, all decode shapes.
		for _, run := range []func(d *decoder){
			func(d *decoder) { decodeWorkItem(d, &arena{}) },
			func(d *decoder) {
				// A leased Get reply: 1 to maxDelivery items, each with a
				// lease and its rows one per id, or none at all.
				d.u8()
				items := decodeDelivery(d, true, maxDelivery, nil)
				if d.err == nil && (len(items) == 0 || len(items) > maxDelivery) {
					t.Fatalf("%d items decoded", len(items))
				}
				for _, it := range items {
					if it.lease <= 0 || it.rows.Len() != len(it.ids) || len(it.ids) > len(raw)/8 {
						t.Fatalf("lease %d, %d row ids, %d rows, out of %d bytes", it.lease, len(it.ids), it.rows.Len(), len(raw))
					}
				}
			},
			func(d *decoder) {
				// A Get: each entry is a write, a read in a Get that
				// wants no work, or a settle that names a lease, is of a
				// known kind and hands an item back only when the Get
				// departs, which wants no work; or nothing decodes.
				var g getRequest
				decodeGet(d, &g)
				if len(g.entries) > len(raw)/5 || d.err != nil && len(g.entries) > 0 {
					t.Fatalf("%d entries out of %d bytes (err %v)", len(g.entries), len(raw), d.err)
				}
				depart := g.flags&getFlagDepart != 0
				if d.err == nil && depart && g.want != 0 {
					t.Fatalf("a departing Get decoded wanting %d items", g.want)
				}
				for _, en := range g.entries {
					st := en.settle
					if en.req != nil && (len(en.req) == 0 || opNames[en.req[0]] == "" || isRead(en.req[0]) && g.want > 0) ||
						en.req == nil && (st.lease == 0 || st.kind > settleHandedBack || st.kind == settleHandedBack && !depart) {
						t.Fatalf("entry decoded as request %x, settle of lease %d and kind %d (flags %#x)",
							en.req, st.lease, st.kind, g.flags)
					}
				}
			},
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
				c := decodedChunk(d)
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

		// 2. Round-trip identity for a message built from the input.
		w := workItem{Type: int(int32(n)), Priority: int(tag), Target: int(int32(n >> 32)), Payload: raw, Inputs: []int64{n, -n, int64(tag)}}
		e := &encoder{}
		encodeWorkItem(e, &w)
		e.i64(n)
		e.boolean(tag&1 == 1)
		frame, err := e.frame()
		if err != nil {
			t.Fatalf("encode failed on plausible message: %v", err)
		}

		d := &decoder{buf: frame}
		gotW := decodeWorkItem(d, &arena{})
		gotN := d.i64()
		gotB := d.boolean()
		if err := d.finish("round trip"); err != nil {
			t.Fatalf("clean round trip rejected: %v", err)
		}
		if gotW.Type != w.Type || gotW.Priority != w.Priority || gotW.Target != w.Target ||
			!bytes.Equal(gotW.Payload, w.Payload) || !slices.Equal(gotW.Inputs, w.Inputs) {
			t.Fatalf("work item round trip: got %+v want %+v", gotW, w)
		}
		if gotN != n || gotB != (tag&1 == 1) {
			t.Fatalf("scalar round trip: got %d/%v want %d/%v", gotN, gotB, n, tag&1 == 1)
		}

		// Trailing garbage after the same clean frame must fail loudly.
		d = &decoder{buf: append(append([]byte(nil), frame...), 0x5A)}
		decodeWorkItem(d, &arena{})
		d.i64()
		d.boolean()
		if err := d.finish("round trip"); err == nil {
			t.Fatal("trailing garbage accepted")
		}

		// A Get carrying entries built from the input — tag%4 settles, of
		// each kind in turn, a done one after a store of the input every
		// other time, a failed one with the input as its reason, and an
		// item handed back only when the Get departs, then, when it wants
		// no work, a lookup of the input — round-trips, and rejects a
		// trailing byte.
		res, err := oneRow(Value{Type: TypeBlob, Bytes: raw, Dims: []int{len(raw)}, Elem: tag})
		if err != nil {
			t.Fatalf("row: %v", err)
		}
		g := getRequest{typ: int(int32(n)), flags: tag & (getFlagLeased | getFlagDepart), want: tag % (maxDelivery + 1)}
		depart := g.flags&getFlagDepart != 0
		if depart {
			g.want = 0
		}
		for i := range int(tag % 4) {
			st := settle{lease: n | 1 + int64(i), kind: uint8((uint64(n) + uint64(i)) % 3)}
			if st.lease == 0 {
				st.lease = 1
			}
			if st.kind == settleHandedBack && !depart {
				st.kind = settleDone
			}
			switch {
			case st.kind == settleDone && i%2 == 0:
				g.entries = append(g.entries, storeEntry(-n|1, res))
			case st.kind == settleFailed:
				st.reason, st.retriable = string(raw), tag&4 != 0
			}
			g.entries = append(g.entries, entry{settle: st})
		}
		if g.want == 0 {
			g.entries = append(g.entries, reqEntry(opLookup, func(e *encoder) {
				e.i64(n)
				e.str(string(raw))
			}))
		}
		e = &encoder{}
		encodeGet(e, &g)
		d = &decoder{buf: e.buf}
		var gotG getRequest
		decodeGet(d, &gotG)
		if err := d.finish("get round trip"); err != nil {
			t.Fatalf("clean Get round trip rejected: %v", err)
		}
		if gotG.typ != g.typ || gotG.flags != g.flags || gotG.want != g.want || len(gotG.entries) != len(g.entries) {
			t.Fatalf("Get round trip: got %+v want %+v", gotG, g)
		}
		for i, en := range gotG.entries {
			if want := g.entries[i]; en.settle != want.settle || !bytes.Equal(en.req, want.req) {
				t.Fatalf("entry %d round trip: got %+v want %+v", i, en, want)
			}
		}
		d = &decoder{buf: append(append([]byte(nil), e.buf...), 0x5A)}
		decodeGet(d, &gotG)
		if err := d.finish("get round trip"); err == nil {
			t.Fatal("trailing garbage accepted after a Get")
		}

		// A leased Get reply of 1 to maxDelivery items built from the
		// input round-trips.
		items := make([]delivered, 1+int(tag)%maxDelivery)
		for i := range items {
			items[i] = delivered{lease: int64(i) + 1, payload: raw, ids: []int64{n}, rows: intChunk(int64(i))}
		}
		e = &encoder{}
		e.u32(uint32(len(items)))
		for i := range items {
			encodeDelivered(e, true, &items[i])
		}
		d = &decoder{buf: e.buf}
		gotItems := decodeDelivery(d, true, maxDelivery, nil)
		if err := d.finish("get reply round trip"); err != nil || len(gotItems) != len(items) {
			t.Fatalf("clean Get reply round trip: %d of %d items, %v", len(gotItems), len(items), err)
		}
		for i, it := range gotItems {
			r := it.rows.Reader()
			if it.lease != items[i].lease || !bytes.Equal(it.payload, raw) || !slices.Equal(it.ids, []int64{n}) ||
				!r.Next() || r.Int() != int64(i) {
				t.Fatalf("item %d round trip: got %+v want %+v", i, it, items[i])
			}
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
		encodeChunk(e, &ck)
		frame, err = e.frame()
		if err != nil {
			t.Fatalf("chunk encode failed: %v", err)
		}
		d = &decoder{buf: frame}
		got := decodedChunk(d)
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
		decodedChunk(d)
		if err := d.finish("chunk round trip"); err == nil {
			t.Fatal("chunk trailing garbage accepted")
		}
	})
}

// FuzzBatchFrame feeds arbitrary bytes after the Get opcode to a
// server's dispatch: a Get's head and its entries, the writes, reads and
// settles a client sends a server. It must never panic. A Get that is
// not well formed — a bad head, an entry cut short, empty or of no known
// kind, a read in a Get that wants work, a malformed settle, bytes after
// the last entry — is an error, with no write applied, and the frame
// goes back to the pool. A well-formed Get goes back too, unless it
// carries a Store of a string or a blob, or a StoreChunk, whose rows the
// data store keeps aliasing the frame (a stored number is copied). The
// store has pages only for ids it issued, and spill pages only for the
// other ids the Get named: a frame cannot make it allocate for an id's
// size.
//
// Run with: go test -fuzz=FuzzBatchFrame ./internal/adlb
func FuzzBatchFrame(f *testing.F) {
	entry := func(kind uint8, body func(e *encoder)) []byte {
		e := &encoder{}
		at := e.begin()
		e.u8(kind)
		body(e)
		if err := e.end(at); err != nil {
			f.Fatal(err)
		}
		return e.buf
	}
	get := func(n int, entries ...[]byte) []byte {
		e := &encoder{}
		encodeGetHead(e, 1, 0, 0, n)
		return append(e.buf, bytes.Join(entries, nil)...)
	}
	store := entry(opStore, func(e *encoder) {
		e.i64(heldBase)
		c := intChunk(7)
		encodeChunk(e, &c)
	})
	put := entry(opPut, func(e *encoder) {
		encodeWorkItem(e, &workItem{Type: 1, Target: AnyRank, Payload: []byte("rule"), Inputs: []int64{heldBase}})
	})
	create := entry(opCreate, func(e *encoder) {
		e.i64(heldBase)
		e.u8(uint8(TypeInteger))
	})
	valueless := entry(opStore, func(e *encoder) { e.i64(heldBase) })
	nested := entry(opGet, func(e *encoder) { encodeGetHead(e, 1, 0, 1, 0) })
	settled := entry(entrySettle, func(e *encoder) {
		e.i64(7)
		e.u8(settleDone)
	})
	lookup := entry(opLookup, func(e *encoder) {
		e.i64(heldBase)
		e.str("k")
	})
	enumerate := entry(opEnumerate, func(e *encoder) { e.i64(heldBase) })
	retrieve := entry(opRetrieveChunk, func(e *encoder) { encodeIDs(e, []int64{heldBase}) })
	unique := entry(opUnique, func(e *encoder) { e.i32(idBlock) })
	headless := entry(opLookup, func(e *encoder) { e.i64(heldBase) }) // a lookup with no subscript
	far := entry(opCreate, func(e *encoder) {
		e.i64(1 << 62)
		e.u8(uint8(TypeInteger))
	})
	tooMany := entry(opUnique, func(e *encoder) { e.i32(idBlock + 1) })
	head := getHeadBytes - 1
	wantsWork := get(2, create, lookup)
	wantsWork[5] = 1
	f.Add(get(3, create, store, put))
	f.Add(get(2, create, put))
	f.Add(get(2, create, store)[:head+len(create)+3]) // the store's length cut short
	f.Add(get(2, create, store[:len(store)-2]))       // the store's body cut short
	f.Add(get(2, create, valueless))                  // well framed, a store with no value
	f.Add(get(2, create, nested))
	f.Add(get(2, put, settled))
	f.Add(get(0))
	f.Add(get(1, []byte{0, 0, 0, 0}))
	f.Add(append(get(3, create, store, put), 0)) // a byte after the last entry
	f.Add(get(3, create, store, retrieve))       // a read after the store it reads
	f.Add(get(3, create, lookup, unique))        // two reads
	f.Add(get(2, store, enumerate))              // a read behind a refused write: no such id
	f.Add(get(2, create, headless))              // well framed, a read with no subscript
	f.Add(wantsWork)                             // a read in a Get that wants work
	f.Add(get(2, far, store))                    // an id far past any issued: no page
	f.Add(get(2, create, tooMany))               // a Unique past idBlock: refused

	f.Fuzz(func(t *testing.T, body []byte) {
		s := testServer(t, 2, 1, 0, Config{})
		frame := append([]byte{opGet}, body...)
		_, _, puts := s.c.World().FramePoolStats()
		err := s.dispatch(frame, mpi.Status{Source: 0, Tag: tagRequest})
		_, _, after := s.c.World().FramePoolStats()
		released := after > puts

		wellFormed, retains := wellFormedGet(body)
		switch {
		case !wellFormed && err == nil:
			t.Fatalf("malformed Get %x accepted", body)
		case !wellFormed && !released:
			t.Fatalf("malformed Get %x (%v) was not released", body, err)
		case !wellFormed && (storeSize(s) > 0 || len(s.untargeted) > 0):
			t.Fatalf("malformed Get %x applied a write", body)
		case wellFormed && released == retains:
			t.Fatalf("Get %x carrying a store: %v, released: %v", body, retains, released)
		case int64(len(s.store.pages)) > (s.store.next+pageSize-1)/pageSize ||
			len(s.store.spill) > (len(s.store.extra)+pageSize-1)/pageSize:
			t.Fatalf("Get %x made %d pages for %d ids issued and %d spill pages for %d other ids",
				body, len(s.store.pages), s.store.next, len(s.store.spill), len(s.store.extra))
		}
	})
}

// wellFormedGet is FuzzBatchFrame's oracle, walking a Get's body after
// its opcode by hand: whether decodeGet must accept it, and whether one
// of its entries is a StoreChunk, or a Store whose row kind, the first
// of its chunk's kind column, is a string or a blob (a stored number is
// copied out of the frame).
func wellFormedGet(b []byte) (ok, retains bool) {
	if len(b) < getHeadBytes-1 {
		return false, false
	}
	flags, want, n := b[4], b[5], binary.LittleEndian.Uint32(b[6:])
	depart := flags&getFlagDepart != 0
	if flags&^(getFlagLeased|getFlagDepart) != 0 || want > maxDelivery || depart && want > 0 {
		return false, false
	}
	rest := b[getHeadBytes-1:]
	for ; n > 0; n-- {
		if len(rest) < 4 {
			return false, false
		}
		m := uint64(binary.LittleEndian.Uint32(rest))
		if m == 0 || m > uint64(len(rest)-4) {
			return false, false
		}
		en := rest[4 : 4+m]
		rest = rest[4+m:]
		if en[0] != entrySettle {
			if opNames[en[0]] == "" || isRead(en[0]) && want > 0 {
				return false, false
			}
			switch {
			case en[0] == opStoreChunk:
				retains = true
			case en[0] == opStore && len(en) > 13:
				retains = retains || en[13] == chunk.KindString || en[13] == chunk.KindBlob
			}
			continue
		}
		if len(en) < 10 {
			return false, false
		}
		lease, kind, tail := binary.LittleEndian.Uint64(en[1:]), en[9], en[10:]
		if kind == settleFailed {
			if len(tail) < 4 || uint64(binary.LittleEndian.Uint32(tail)) >= uint64(len(tail)-4) {
				return false, false
			}
			tail = tail[4+binary.LittleEndian.Uint32(tail)+1:]
		}
		if len(tail) != 0 || lease == 0 || kind > settleHandedBack || kind == settleHandedBack && !depart {
			return false, false
		}
	}
	return len(rest) == 0, retains
}
