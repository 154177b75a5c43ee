package adlb

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"repro/internal/chunk"
)

// A refcount drop below zero is refused with nothing changed: the
// container stays open, the open count stands, the rule held on it stays
// held, and the proper close after it releases the rule.
func TestRefusedRefcountDropChangesNothing(t *testing.T) {
	const c = int64(heldBase)
	s := testServer(t, 2, 1, 0, Config{})
	create := reqEntry(opCreate, func(e *encoder) {
		e.i64(c)
		e.u8(uint8(TypeContainer))
	})
	rule := reqEntry(opPut, func(e *encoder) {
		encodeWorkItem(e, &workItem{Type: typeWork, Target: AnyRank, Payload: []byte("rule"), Inputs: []int64{c}})
	})
	drop := func(delta int32) *getRequest {
		return &getRequest{entries: []entry{reqEntry(opWriteRefcount, func(e *encoder) {
			e.i64(c)
			e.i32(delta)
		})}}
	}
	if err := dispatchGet(t, s, &getRequest{entries: []entry{create, rule}}); err != nil {
		t.Fatal(err)
	}
	open := s.open
	want := fmt.Sprintf("adlb: refcount: refcount: id %d dropped below zero", c)
	if err := dispatchGet(t, s, drop(-2)); err == nil || err.Error() != want {
		t.Fatalf("dropping 1 by 2: %v, want %q", err, want)
	}
	if dm := s.store.get(c); dm.closed() || s.open != open || s.held != 1 {
		t.Fatalf("the refused drop changed the container: closed %v, open %d (was %d), held %d",
			dm.closed(), s.open, open, s.held)
	}
	if err := dispatchGet(t, s, drop(-1)); err != nil {
		t.Fatal(err)
	}
	if q := s.untargeted[typeWork]; s.held != 0 || q == nil || q.len() != 1 || s.open != open-1 {
		t.Fatalf("the close after the refused drop: held %d, open %d (was %d), want the rule queued", s.held, s.open, open)
	}
}

// An id this server did not issue takes no page of the directory,
// however large: Creates of 1<<62 and of a hand-minted id cost a spill
// slot each, and a Unique past idBlock is refused with nothing issued.
func TestFarIDsAllocateNoPage(t *testing.T) {
	s := testServer(t, 2, 1, 0, Config{})
	far := []int64{1 << 62, heldBase, -5}
	var creates []entry
	for _, id := range far {
		creates = append(creates, reqEntry(opCreate, func(e *encoder) {
			e.i64(id)
			e.u8(uint8(TypeInteger))
		}))
	}
	if err := dispatchGet(t, s, &getRequest{entries: creates}); err != nil {
		t.Fatal(err)
	}
	if len(s.store.pages) != 0 || len(s.store.spill) != 1 {
		t.Fatalf("creating %v made %d pages and %d spill pages, want 0 and 1", far, len(s.store.pages), len(s.store.spill))
	}
	for _, id := range far {
		if dm := s.store.get(id); dm == nil || dm.typ != TypeInteger {
			t.Errorf("id %d: %+v after its Create", id, dm)
		}
	}
	next := s.store.next
	unique := reqEntry(opUnique, func(e *encoder) { e.i32(idBlock + 1) })
	m, err := s.answer(opUnique, &decoder{buf: unique.req, off: 1}, &encoder{})
	if want := fmt.Sprintf("unique: %d ids, at most %d", idBlock+1, idBlock); err != nil || m != want {
		t.Fatalf("a Unique of %d: %q, %v; want %q", idBlock+1, m, err, want)
	}
	if s.store.next != next {
		t.Fatalf("the refused Unique issued %d ids", s.store.next-next)
	}
}

// A StoreChunk into a container whose members are a column, and the
// Enumerate of it, allocate as much at n = 1e4 as at n = 1e3: no
// subscript string, map entry or datum is allocated per member.
func TestDenseContainerAllocsFlatInN(t *testing.T) {
	s := testServer(t, 2, 1, 0, Config{})
	allocs := func(n int) float64 {
		var rows chunk.Chunk
		for i := range n {
			rows.AppendInt(int64(i))
		}
		const c = int64(1) // the first id server 0 of one issues
		create := reqEntry(opCreate, func(e *encoder) {
			e.i64(c)
			e.u8(uint8(TypeContainer))
		})
		store := reqEntry(opStoreChunk, func(e *encoder) {
			e.i64(c)
			encodeChunk(e, &rows)
		})
		enumerate := reqEntry(opEnumerate, func(e *encoder) { e.i64(c) })
		var err error
		got := testing.AllocsPerRun(3, func() {
			s := newServer(s.c, s.cfg, s.l)
			s.store.issue(1)
			for _, w := range []entry{create, store} {
				if m, _, werr := s.applyWrite(w.req[0], &decoder{buf: w.req, off: 1}); werr != nil || m != "" {
					err = fmt.Errorf("%s: %q, %v", opNames[w.req[0]], m, werr)
				}
			}
			e := encoder{}
			if _, rerr := s.answer(opEnumerate, &decoder{buf: enumerate.req, off: 1}, &e); rerr != nil {
				err = rerr
			}
			if d := (decoder{buf: e.buf, off: 1}); d.u32() != uint32(n) {
				err = fmt.Errorf("enumerated %d members, want %d", d.u32(), n)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	runtime.GC() // a first collection starts its workers, allocating
	small, large := allocs(1e3), allocs(1e4)
	t.Logf("StoreChunk and Enumerate of a dense container: %v allocations at n = 1e3, %v at n = 1e4", small, large)
	if small != large {
		t.Fatalf("%v allocations at n = 1e3, %v at n = 1e4: a cost per member", small, large)
	}
}

// FuzzContainerOps runs container requests decoded from the fuzzer's
// bytes — Insert, StoreChunk, Lookup, Enumerate and a write refcount,
// an op byte and an argument byte each — against a server's container
// and against a reference model of a map and an insertion order, and
// wants the same answers, refusal texts, member ids and values, and
// open count from both. An argument below 200 names the subscript of
// its last digit; others name one that is not a position ("01", "-1",
// "x", "") or is one past any column's length, so runs cover a column,
// its move into the map, and StoreChunk's base after the move.
//
// Run with: go test -fuzz=FuzzContainerOps ./internal/adlb
func FuzzContainerOps(f *testing.F) {
	const (
		insert = iota
		storeChunk
		lookup
		enumerate
		refcount
	)
	odd := []string{"01", "-1", "x", "", "00", "+1", "12", "1000000000000000000"}
	sub := func(arg byte) string {
		if arg < 200 {
			return strconv.Itoa(int(arg % 10))
		}
		return odd[(arg-200)%byte(len(odd))]
	}
	f.Add([]byte{insert, 0, insert, 1, insert, 2, storeChunk, 3, lookup, 4, lookup, 200, lookup, 9, enumerate, 0})
	f.Add([]byte{insert, 0, insert, 5, storeChunk, 2, enumerate, 0, lookup, 5, lookup, 3, insert, 3})
	f.Add([]byte{insert, 200, insert, 201, insert, 202, insert, 203, insert, 0, lookup, 0, enumerate, 0})
	f.Add([]byte{insert, 1, storeChunk, 2, enumerate, 0, storeChunk, 1, lookup, 1})
	f.Add([]byte{refcount, 0, insert, 0, refcount, 1, insert, 1, storeChunk, 1, refcount, 3, refcount, 1, enumerate, 0})
	f.Add([]byte{insert, 0, insert, 0, storeChunk, 1, insert, 1, lookup, 1, insert, 207, lookup, 207, enumerate, 0})
	f.Add([]byte{storeChunk, 4, insert, 206, storeChunk, 3, enumerate, 0, refcount, 2, refcount, 0})

	f.Fuzz(func(t *testing.T, ops []byte) {
		s := testServer(t, 3, 2, 1, Config{}) // ids 3, 5, 7, ...
		c := s.store.issue(1)
		next := c + s.store.stride // the next id a StoreChunk mints
		members, order, refs, open := map[string]int64{}, []string(nil), 1, 1
		vals := map[int64]int64{} // minted member -> its value
		write := func(op uint8, body func(e *encoder)) (string, *datum) {
			w := reqEntry(op, body)
			m, dm, err := s.applyWrite(op, &decoder{buf: w.req, off: 1})
			if err != nil {
				t.Fatal(err)
			}
			return m, dm
		}
		read := func(op uint8, body func(e *encoder)) *decoder {
			r := reqEntry(op, body)
			e := encoder{}
			if m, err := s.answer(op, &decoder{buf: r.req, off: 1}, &e); err != nil || m != "" {
				t.Fatalf("%s: %q, %v", opNames[op], m, err)
			}
			return &decoder{buf: e.buf}
		}
		if m, _ := write(opCreate, func(e *encoder) { e.i64(c); e.u8(uint8(TypeContainer)) }); m != "" {
			t.Fatal(m)
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			arg, closed := ops[1], refs <= 0
			want, got := "", ""
			switch ops[0] % 5 {
			case insert:
				k, member := sub(arg), -1-int64(arg)
				_, dup := members[k]
				switch {
				case closed:
					want = fmt.Sprintf("insert: container %d is closed", c)
				case dup:
					want = fmt.Sprintf("insert: container %d already has subscript %q", c, k)
				default:
					members[k] = member
					order = append(order, k)
				}
				got, _ = write(opInsert, func(e *encoder) { e.i64(c); e.str(k); e.i64(member) })
			case storeChunk:
				n := int(arg % 5)
				var rows chunk.Chunk
				for i := range n {
					rows.AppendInt(int64(arg)*10 + int64(i))
				}
				if closed {
					want = fmt.Sprintf("store_chunk: container %d is closed", c)
				}
				for i := 0; i < n && want == ""; i++ {
					k := strconv.Itoa(len(order) + i)
					if _, dup := members[k]; dup {
						want = fmt.Sprintf("store_chunk: container %d already has subscript %q", c, k)
					}
				}
				for i := 0; i < n && want == ""; i++ {
					k := strconv.Itoa(len(order))
					members[k], vals[next] = next, int64(arg)*10+int64(i)
					order = append(order, k)
					next += s.store.stride
				}
				got, _ = write(opStoreChunk, func(e *encoder) { e.i64(c); encodeChunk(e, &rows) })
			case lookup:
				k := sub(arg)
				d := read(opLookup, func(e *encoder) { e.i64(c); e.str(k) })
				st := d.u8()
				m, ok := members[k]
				if st == stOK && (!ok || d.i64() != m) || st == stNotFound && ok || st != stOK && st != stNotFound {
					t.Fatalf("lookup %q: status %d, want member %d (%v)", k, st, m, ok)
				}
			case enumerate:
				d := read(opEnumerate, func(e *encoder) { e.i64(c) })
				if st, n := d.u8(), d.u32(); st != stOK || int(n) != len(order) {
					t.Fatalf("enumerate: status %d, %d members, want %d", st, n, len(order))
				}
				for _, k := range order {
					if gk, gm := d.str(), d.i64(); gk != k || gm != members[k] {
						t.Fatalf("enumerate: (%q, %d), want (%q, %d)", gk, gm, k, members[k])
					}
					if v, minted := vals[members[k]]; minted {
						if dm := s.store.get(members[k]); dm == nil || !dm.set || readInt(t, dm.val) != v {
							t.Fatalf("member %q: %+v, want %d", k, dm, v)
						}
					}
				}
				if err := d.finish("enumerate answer"); err != nil {
					t.Fatal(err)
				}
			case refcount:
				delta := int32(arg%5) - 2
				var dm *datum
				got, dm = write(opWriteRefcount, func(e *encoder) { e.i64(c); e.i32(delta) })
				switch {
				case closed && delta > 0:
					want = fmt.Sprintf("refcount: container %d is closed", c)
				case refs+int(delta) < 0:
					want = fmt.Sprintf("refcount: id %d dropped below zero", c)
				default:
					refs += int(delta)
					if !closed && refs <= 0 {
						open--
					}
				}
				if closes := !closed && refs <= 0; (dm != nil) != closes {
					t.Fatalf("refcount %+d: returned %v as closed, want a close: %v", delta, dm != nil, closes)
				}
			}
			if got != want || s.open != open {
				t.Fatalf("op %d arg %d: %q with %d open, want %q with %d", ops[0]%5, arg, got, s.open, want, open)
			}
		}
		if !slices.Equal(order, orderOf(s.store.get(c).c)) {
			t.Fatalf("the container's order %q, want %q", orderOf(s.store.get(c).c), order)
		}
	})
}

// orderOf is ct's subscripts in their order.
func orderOf(ct *container) []string {
	if ct.members != nil {
		return ct.order
	}
	var subs []string
	for i := range ct.ids {
		subs = append(subs, strconv.Itoa(i))
	}
	return subs
}

// readInt is the integer v holds.
func readInt(t *testing.T, v Value) int64 {
	t.Helper()
	r, err := readRow(v)
	if err != nil {
		t.Fatal(err)
	}
	return r.Int()
}
