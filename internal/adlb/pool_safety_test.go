package adlb

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/chunk"
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
