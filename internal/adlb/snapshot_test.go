package adlb

// Runtime guard for the Stats/StatsSnapshot pair: every counter added
// to Stats must appear in StatsSnapshot AND be copied by Snapshot().
// Both halves have been forgotten before (a field added to Stats but not
// the snapshot silently reports zero forever). The statsmirror analyzer
// catches the structural half at vet time; this test also proves the
// copy happens.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/statstest"
)

func TestStatsSnapshotMirrorsEveryCounter(t *testing.T) {
	var st Stats
	statstest.AssertMirror(t, &st, func() any { return st.Snapshot() })
}

// TestDataOpKindsSumToDataOps drives every data-store request kind a
// distinct number of times on a two-server world and checks each Op*
// counter against the requests made, and their sum against DataOps.
func TestDataOpKindsSumToDataOps(t *testing.T) {
	snap := runWorld(t, 4, 2, func(cl *Client) error {
		if cl.Rank() != 0 {
			return drainShutdown(cl)
		}
		const c, a, b = int64(1_000_000), int64(1_000_001), int64(1_000_002)
		steps := []func() error{
			func() error { return cl.Create(c, TypeContainer) },
			func() error { return cl.Create(a, TypeInteger) },
			func() error { return cl.Create(b, TypeInteger) },
			func() error { return cl.Store(a, IntValue(7)) },
			func() error { return cl.Store(b, IntValue(8)) },
			// Retrieve is a one-id chunk load.
			func() error { _, _, err := cl.Retrieve(a); return err },
			func() error { return cl.Insert(c, "0", a) },
			func() error { return cl.Insert(c, "1", b) },
			func() error { _, _, err := cl.Lookup(c, "0"); return err },
			func() error { _, err := cl.Enumerate(c); return err },
			func() error { _, err := cl.Enumerate(c); return err },
			func() error { _, err := cl.Enumerate(c); return err },
			func() error { _, err := cl.RetrieveChunk([]int64{a, b}); return err },
			func() error {
				var ck chunk.Chunk
				ck.AppendInt(9)
				return cl.StoreChunk(c, ck)
			},
			func() error { return cl.WriteRefcount(c, -1) },
		}
		for i, step := range steps {
			if err := step(); err != nil {
				return fmt.Errorf("step %d: %w", i, err)
			}
		}
		return drainShutdown(cl)
	})
	want := StatsSnapshot{
		OpCreate: 3, OpStore: 2, OpInsert: 2, OpLookup: 1,
		OpEnumerate: 3, OpChunkLoad: 3, OpChunkStore: 1, OpWriteRefcount: 1,
	}
	var sum int64
	sv, wv := reflect.ValueOf(snap), reflect.ValueOf(want)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if !strings.HasPrefix(name, "Op") {
			continue
		}
		if got, want := sv.Field(i).Int(), wv.Field(i).Int(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
		sum += sv.Field(i).Int()
	}
	if sum != snap.DataOps || sum != 16 {
		t.Fatalf("kinds sum to %d, DataOps = %d, want both 16", sum, snap.DataOps)
	}
}
