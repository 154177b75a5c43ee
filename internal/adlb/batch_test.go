package adlb

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chunk"
)

// drainClient parks until NO_MORE_WORK so the server can reach
// quiescence and terminate.
func drainClient(cl *Client) error {
	for {
		_, ok, err := cl.Get(typeWork)
		if err != nil || !ok {
			return err
		}
	}
}

func intChunk(vals ...int64) chunk.Chunk {
	var c chunk.Chunk
	for _, v := range vals {
		c.AppendInt(v)
	}
	return c
}

func TestRetrieveChunkAcrossServers(t *testing.T) {
	// Ids allocated from different home servers: the gather must group by
	// owner, fetch from each, and return rows in request order.
	const n = 64
	runWorld(t, 6, 2, func(cl *Client) error {
		if cl.Rank() != 0 && cl.Rank() != 3 {
			return drainClient(cl)
		}
		// Rank 0's home server is 4, rank 3's is 5 — together they mint
		// ids owned by both servers.
		var ids []int64
		for i := 0; i < n/2; i++ {
			id, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := cl.Create(id, TypeFloat); err != nil {
				return err
			}
			if err := cl.Store(id, FloatValue(float64(cl.Rank()*1000+i)+0.5)); err != nil {
				return err
			}
			ids = append(ids, id)
		}
		ck, err := cl.RetrieveChunk(ids)
		if err != nil {
			return err
		}
		if ck.Len() != len(ids) {
			return fmt.Errorf("got %d rows for %d ids", ck.Len(), len(ids))
		}
		r := ck.Reader()
		for i := 0; r.Next(); i++ {
			if want := float64(cl.Rank()*1000+i) + 0.5; r.Kind() != chunk.KindFloat || r.Float() != want {
				return fmt.Errorf("row %d = %v (kind %v), want %v (order lost)", i, r.Float(), r.Kind(), want)
			}
		}
		// A gather naming a missing id must error, naming it, not return junk.
		missing := int64(1 << 40)
		if _, err := cl.RetrieveChunk([]int64{ids[0], missing}); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("no such id %d", missing)) {
			return fmt.Errorf("missing id in gather: err = %v", err)
		}
		return drainClient(cl)
	})
}

func TestStoreChunkPopulatesContainer(t *testing.T) {
	const n = 100
	runWorld(t, 3, 1, func(cl *Client) error {
		if cl.Rank() != 0 {
			return drainClient(cl)
		}
		c, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		var vals chunk.Chunk
		for i := 0; i < n; i++ {
			vals.AppendFloat(float64(i) * 0.25)
		}
		if err := cl.StoreChunk(c, vals); err != nil {
			return err
		}
		// The caller still owns the creation write reference.
		if closed, err := probeClosed(cl, c); err != nil || closed {
			return fmt.Errorf("container closed before refcount drop: %v", err)
		}
		if err := cl.WriteRefcount(c, -1); err != nil {
			return err
		}
		if err := awaitProbe(cl, c); err != nil {
			return fmt.Errorf("container not closed after refcount drop: %w", err)
		}
		pairs, err := cl.Enumerate(c)
		if err != nil {
			return err
		}
		if len(pairs) != n {
			return fmt.Errorf("enumerate: %d members, want %d", len(pairs), n)
		}
		ids := make([]int64, n)
		for _, p := range pairs {
			idx, err := strconv.Atoi(p.Subscript)
			if err != nil || idx < 0 || idx >= n {
				return fmt.Errorf("bad subscript %q", p.Subscript)
			}
			ids[idx] = p.Member
		}
		got, err := cl.RetrieveChunk(ids)
		if err != nil {
			return err
		}
		r := got.Reader()
		for i := 0; r.Next(); i++ {
			if f := r.Float(); f != float64(i)*0.25 {
				return fmt.Errorf("member %d = %v, want %v", i, f, float64(i)*0.25)
			}
		}
		// Storing into a closed container must fail.
		if err := sent(cl, cl.StoreChunk(c, vals)); err == nil ||
			!strings.Contains(err.Error(), "closed") {
			return fmt.Errorf("store into closed container: err = %v", err)
		}
		return drainClient(cl)
	})
}

func TestStoreChunkIsAllOrNothing(t *testing.T) {
	// A StoreChunk that collides with an existing subscript must leave
	// the container exactly as it was — no partial members.
	runWorld(t, 2, 1, func(cl *Client) error {
		c, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		m, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(m, TypeInteger); err != nil {
			return err
		}
		if err := cl.Store(m, IntValue(1)); err != nil {
			return err
		}
		// One member at "2": len(order)=1, so a 3-row chunk targets
		// subscripts 1,2,3 and collides mid-range at "2".
		if err := cl.Insert(c, "2", m); err != nil {
			return err
		}
		err = sent(cl, cl.StoreChunk(c, intChunk(10, 11, 12)))
		if err == nil || !strings.Contains(err.Error(), "already has subscript") {
			return fmt.Errorf("colliding StoreChunk: err = %v", err)
		}
		pairs, err := cl.Enumerate(c)
		if err != nil {
			return err
		}
		if len(pairs) != 1 || pairs[0].Subscript != "2" {
			return fmt.Errorf("container mutated by failed StoreChunk: %v", pairs)
		}
		return drainClient(cl)
	})
}

func TestStoreChunkAppendsAfterInserts(t *testing.T) {
	// A chunk store lands after any subscripts already present, so mixed
	// element-wise and bulk construction cannot collide.
	runWorld(t, 2, 1, func(cl *Client) error {
		c, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		m, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(m, TypeInteger); err != nil {
			return err
		}
		if err := cl.Store(m, IntValue(7)); err != nil {
			return err
		}
		if err := cl.Insert(c, "0", m); err != nil {
			return err
		}
		if err := cl.StoreChunk(c, intChunk(8, 9)); err != nil {
			return err
		}
		pairs, err := cl.Enumerate(c)
		if err != nil {
			return err
		}
		var subs []string
		for _, p := range pairs {
			subs = append(subs, p.Subscript)
		}
		if strings.Join(subs, ",") != "0,1,2" {
			return fmt.Errorf("subscripts = %v, want 0,1,2", subs)
		}
		return drainClient(cl)
	})
}
