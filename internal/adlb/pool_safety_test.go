package adlb

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/chunk"
	"repro/internal/mpi"
)

// TestZeroCopyAliasingContract pins the documented release point of
// retrieved payloads: a slice returned by Retrieve aliases the response
// frame and is valid until the next call on the same Client returns;
// after that the frame may be recycled for unrelated traffic, and
// mutating the stale view must never corrupt the store (the server's
// datum bytes live in the retained store-request frame, not in any
// response frame). The transport-level reuse mechanics are pinned
// deterministically in internal/mpi's TestFramePoolReuseAliasing.
func TestZeroCopyAliasingContract(t *testing.T) {
	fillA := bytes.Repeat([]byte{0xAA}, 4096)
	fillB := bytes.Repeat([]byte{0xBB}, 4096)
	runWorld(t, 2, 1, func(cl *Client) error {
		mk := func(fill []byte) (int64, error) {
			id, err := cl.Unique()
			if err != nil {
				return 0, err
			}
			if err := cl.Create(id, TypeBlob); err != nil {
				return 0, err
			}
			return id, cl.Store(id, BlobValue(fill))
		}
		a, err := mk(fillA)
		if err != nil {
			return err
		}
		b, err := mk(fillB)
		if err != nil {
			return err
		}

		va, found, err := cl.Retrieve(a)
		if err != nil || !found {
			return fmt.Errorf("retrieve a: found=%v err=%v", found, err)
		}
		pa := va.Bytes
		// Before the release point the view must be intact.
		if !bytes.Equal(pa, fillA) {
			return fmt.Errorf("payload wrong before release point")
		}

		// The next call on the Client is pa's release point. Afterwards
		// the frame backing pa belongs to the pool again; scribbling over
		// the stale view must be harmless to the store.
		if _, _, err := cl.Retrieve(b); err != nil {
			return err
		}
		for i := range pa {
			pa[i] = 0x11
		}
		va2, _, err := cl.Retrieve(a)
		if err != nil {
			return err
		}
		if va2.Type != TypeBlob || !bytes.Equal(va2.Bytes, fillA) {
			return fmt.Errorf("store corrupted by mutation of a stale zero-copy view")
		}

		// Reuse must actually be happening — the contract is load-bearing,
		// not theoretical.
		if _, hits, _ := cl.Comm().World().FramePoolStats(); hits == 0 {
			return fmt.Errorf("frame pool recorded no reuse across the calls above")
		}
		return drainClient(cl)
	})
}

// TestPooledFramesConcurrentClients hammers the shared frame pool from
// several clients against two servers, verifying every retrieved
// payload byte-for-byte. Run under -race this catches pool-reuse
// corruption: a frame released by one rank while another still writes
// or reads it would show up as a data race or a fill-pattern mismatch.
func TestPooledFramesConcurrentClients(t *testing.T) {
	const iters = 120
	runWorld(t, 6, 2, func(cl *Client) error {
		fill := func(i, n int) []byte {
			return bytes.Repeat([]byte{byte(cl.Rank()*37 + i)}, n)
		}
		var blobIDs []int64
		var floatIDs []int64
		var floats []float64
		for i := 0; i < iters; i++ {
			// Vary frame sizes so ranks constantly trade buffers of
			// different capacities through the pool.
			n := 64 << (i % 5)
			id, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := cl.Create(id, TypeBlob); err != nil {
				return err
			}
			if err := cl.Store(id, BlobValue(fill(i, n))); err != nil {
				return err
			}
			blobIDs = append(blobIDs, id)
			v, found, err := cl.Retrieve(id)
			if err != nil || !found {
				return fmt.Errorf("rank %d retrieve %d: found=%v err=%v", cl.Rank(), id, found, err)
			}
			if v.Type != TypeBlob || !bytes.Equal(v.Bytes, fill(i, n)) {
				return fmt.Errorf("rank %d iter %d: payload corrupted", cl.Rank(), i)
			}

			fid, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := cl.Create(fid, TypeFloat); err != nil {
				return err
			}
			f := float64(cl.Rank()*1000+i) + 0.25
			if err := cl.Store(fid, FloatValue(f)); err != nil {
				return err
			}
			floatIDs = append(floatIDs, fid)
			floats = append(floats, f)

			// Periodic columnar gathers over the recent ids (blob rows,
			// then float rows), verified in request order.
			if i%8 == 7 {
				bk, err := cl.RetrieveChunk(blobIDs[len(blobIDs)-8:])
				if err != nil {
					return err
				}
				br := bk.Reader()
				for j := 0; br.Next(); j++ {
					k := i - 7 + j
					if br.Kind() != chunk.KindBlob || !bytes.Equal(br.Bytes(), fill(k, 64<<(k%5))) {
						return fmt.Errorf("rank %d blob chunk row %d corrupted", cl.Rank(), j)
					}
				}
				ck, err := cl.RetrieveChunk(floatIDs[len(floatIDs)-8:])
				if err != nil {
					return err
				}
				if kind, ok := ck.AllKind(); !ok || kind != chunk.KindFloat {
					return fmt.Errorf("rank %d: float chunk not homogeneous", cl.Rank())
				}
				r := ck.Reader()
				for j := 0; r.Next(); j++ {
					if got, want := r.Float(), floats[len(floats)-8+j]; got != want {
						return fmt.Errorf("rank %d chunk elem %d = %v, want %v", cl.Rank(), j, got, want)
					}
				}
			}
		}
		return drainClient(cl)
	})
}

// TestResultFrameSurvivesPoolReuse: a result stored by the Get it rides
// lives in that Get's request frame, retained as the datum's backing, so
// it must read back intact after many later frames have cycled through
// the pool. Each result here is its task's input passed straight
// through: a value aliasing the item's frame, which the Store copies
// into the Get's entries.
func TestResultFrameSurvivesPoolReuse(t *testing.T) {
	const iters = 60
	runWorld(t, 4, 1, func(cl *Client) error {
		fill := func(i int) []byte {
			return bytes.Repeat([]byte{byte(cl.Rank()*61 + i)}, 64<<(i%5))
		}
		outs := make([]int64, iters)
		for i := range outs {
			in, err := cl.Unique()
			if err != nil {
				return err
			}
			if outs[i], err = cl.Unique(); err != nil {
				return err
			}
			if err := cl.Store(in, BlobValue(fill(i))); err != nil {
				return err
			}
			// Pinned here: this rank runs the rule, and its Get carries
			// the previous iteration's result.
			if err := cl.Put(typeWork, 0, cl.Rank(), nil, in); err != nil {
				return err
			}
			if _, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok {
				return fmt.Errorf("rank %d iter %d: ok=%v err=%v", cl.Rank(), i, ok, err)
			}
			v, found, err := cl.Retrieve(in)
			if err != nil || !found {
				return fmt.Errorf("rank %d iter %d: input found=%v err=%v", cl.Rank(), i, found, err)
			}
			if err := cl.Store(outs[i], v); err != nil {
				return err
			}
		}
		// One more task carries the last result.
		if err := cl.Put(typeWork, 0, cl.Rank(), nil); err != nil {
			return err
		}
		if _, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok {
			return fmt.Errorf("rank %d last task: ok=%v err=%v", cl.Rank(), ok, err)
		}
		for i, out := range outs {
			v, found, err := cl.Retrieve(out)
			if err != nil || !found {
				return fmt.Errorf("rank %d result %d: found=%v err=%v", cl.Rank(), i, found, err)
			}
			if v.Type != TypeBlob || !bytes.Equal(v.Bytes, fill(i)) {
				return fmt.Errorf("rank %d result %d corrupted", cl.Rank(), i)
			}
		}
		if _, hits, _ := cl.Comm().World().FramePoolStats(); hits == 0 {
			return fmt.Errorf("frame pool recorded no reuse")
		}
		return drainClient(cl)
	})
}

// runServed runs a world of one client and one server, and returns the
// server once the run is over, for a test to look into its data store.
func runServed(t *testing.T, clientFn func(cl *Client) error) *server {
	t.Helper()
	cfg := testConfig(1)
	w, err := mpi.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLayout(2, 1)
	var srv *server
	err = w.Run(func(c *mpi.Comm) error {
		if l.IsServer(c.Rank()) {
			srv = newServer(c, cfg, l)
			return srv.run()
		}
		cl, err := NewClient(c, cfg)
		if err != nil {
			return err
		}
		return clientFn(cl)
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// storeBlob stores a fresh blob of n bytes of fill and returns its id.
func storeBlob(cl *Client, n int, fill byte) (int64, error) {
	id, err := cl.Unique()
	if err != nil {
		return 0, err
	}
	return id, sent(cl, cl.Store(id, BlobValue(bytes.Repeat([]byte{fill}, n))))
}

// TestSmallStoreSkipsReleasedBlobFrame: a frame is drawn best-fit, so a
// small Store the server retains is not built in an 8 MiB frame just
// released to the pool, which it would pin for the datum's life. Small
// frames circulate first; then an 8 MiB blob is read back and its reply
// frame released, and a 300-byte Store follows.
func TestSmallStoreSkipsReleasedBlobFrame(t *testing.T) {
	var small int64
	srv := runServed(t, func(cl *Client) error {
		s, err := storeBlob(cl, 300, 1)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if _, _, err := cl.Retrieve(s); err != nil {
				return err
			}
		}
		big, err := storeBlob(cl, 8<<20, 2)
		if err != nil {
			return err
		}
		if _, _, err := cl.Retrieve(big); err != nil {
			return err
		}
		// This read releases the blob's reply frame.
		if _, _, err := cl.Retrieve(s); err != nil {
			return err
		}
		if small, err = storeBlob(cl, 300, 3); err != nil {
			return err
		}
		return drainClient(cl)
	})
	v := srv.store.get(small).val
	if len(v.Bytes) != 300 || cap(v.Bytes) > 64<<10 {
		t.Fatalf("a retained 300-byte Store pins %d bytes of its frame, want at most 64 KiB", cap(v.Bytes))
	}
}

// TestBlobTakesOneFrame: a 4 MiB Store, and the Get reply that delivers
// the blob as an input, are each built in one frame sized once — drawn
// once, never regrown by doubling — with at most 4 KiB to spare.
func TestBlobTakesOneFrame(t *testing.T) {
	const n = 4 << 20
	const spare = 4 << 10
	var id int64
	srv := runServed(t, func(cl *Client) error {
		w := cl.Comm().World()
		draws := func() uint64 { gets, _, _ := w.FramePoolStats(); return gets }
		var err error
		if id, err = cl.Unique(); err != nil {
			return err
		}
		if err := sent(cl, cl.Put(typeWork, 0, AnyRank, nil, id)); err != nil {
			return err
		}
		d0, s0 := draws(), w.FramesSent()
		if err := cl.Store(id, BlobValue(bytes.Repeat([]byte{7}, n))); err != nil {
			return err
		}
		if d, s := draws()-d0, w.FramesSent()-s0; d != 2 || s != 2 {
			return fmt.Errorf("the Store drew %d frames for %d sent, want 2 for 2: its request and the reply", d, s)
		}
		d0, s0 = draws(), w.FramesSent()
		if _, _, ok, err := cl.GetLeased(typeWork); err != nil || !ok {
			return fmt.Errorf("get: ok=%v err=%v", ok, err)
		}
		if d, s := draws()-d0, w.FramesSent()-s0; d != 2 || s != 2 {
			return fmt.Errorf("the Get drew %d frames for %d sent, want 2 for 2: its request and the reply", d, s)
		}
		if cap(cl.deliv)-len(cl.deliv) > spare || len(cl.deliv) < n {
			return fmt.Errorf("the Get reply is %d bytes in a frame of %d, want at most %d to spare", len(cl.deliv), cap(cl.deliv), spare)
		}
		return drainClient(cl)
	})
	v := srv.store.get(id).val
	if len(v.Bytes) != n || cap(v.Bytes)-len(v.Bytes) > spare {
		t.Fatalf("the stored blob's frame has %d bytes past the value, want at most %d", cap(v.Bytes)-len(v.Bytes), spare)
	}
}
