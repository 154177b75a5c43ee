package adlb

// Regression tests for targeted-queue GC: work targeted at a departed
// client (one already handed NO_MORE_WORK) can never be delivered, so it
// must be dropped and counted — not stranded in the targeted map.

import (
	"sync/atomic"
	"testing"
)

func TestTargetedQueueGCForDepartedClients(t *testing.T) {
	// Comm-free server: acceptWork and clientDeparted touch no sockets
	// when nothing is parked.
	s := &server{
		cfg:        testConfig(1),
		untargeted: map[int]*workQueue{},
		targeted:   map[targetKey]*workQueue{},
		parked:     map[int]parkedReq{},
		departed:   map[int]bool{},
	}
	s.acceptWork(&workItem{Type: typeWork, Target: 1, Payload: []byte("a")})
	s.acceptWork(&workItem{Type: typeWork, Target: 1, Payload: []byte("b")})
	s.acceptWork(&workItem{Type: typeControl, Target: 1, Payload: []byte("c")})
	s.acceptWork(&workItem{Type: typeWork, Target: 2, Payload: []byte("other")})
	if len(s.targeted) != 3 {
		t.Fatalf("targeted queues = %d, want 3", len(s.targeted))
	}

	s.clientDeparted(1)
	if got := s.cfg.Stats.TargetedDropped.Load(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if len(s.targeted) != 1 {
		t.Fatalf("client 1's queues not GC'd: %d remain", len(s.targeted))
	}
	if _, ok := s.targeted[targetKey{typ: typeWork, target: 2}]; !ok {
		t.Fatal("client 2's queue was GC'd with client 1's")
	}

	// New targeted work for a departed client is dropped on arrival.
	s.acceptWork(&workItem{Type: typeWork, Target: 1, Payload: []byte("late")})
	if len(s.targeted) != 1 {
		t.Fatal("post-departure targeted work was queued")
	}
	if got := s.cfg.Stats.TargetedDropped.Load(); got != 4 {
		t.Fatalf("dropped = %d, want 4", got)
	}

	// Departure is idempotent — including doneCount, which feeds the
	// server-exit condition — and does not disturb other clients.
	done := s.doneCount
	s.clientDeparted(1)
	if s.doneCount != done {
		t.Fatalf("repeated departure advanced doneCount %d -> %d", done, s.doneCount)
	}
	if len(s.targeted) != 1 || s.cfg.Stats.TargetedDropped.Load() != 4 {
		t.Fatal("repeated departure changed state")
	}
}

func TestTargetedGCDoesNotDropLiveWork(t *testing.T) {
	// End to end: a run with real targeted traffic must deliver every
	// item and terminate with nothing GC-dropped — departure-time GC may
	// only ever touch undeliverable work. (Puts after NO_MORE_WORK are a
	// protocol violation and inherently race server shutdown, so the
	// drop path itself is covered by the comm-free unit test above.)
	var got atomic.Int64
	stats := runWorld(t, 4, 1, func(cl *Client) error {
		if cl.Rank() == 0 {
			for i := 0; i < 8; i++ {
				if err := cl.Put(typeWork, 0, 1+i%2, []byte("t")); err != nil {
					return err
				}
			}
		}
		for {
			_, ok, err := cl.Get(typeWork)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			got.Add(1)
		}
	})
	if got.Load() != 8 {
		t.Fatalf("delivered = %d, want 8", got.Load())
	}
	if stats.TargetedDropped != 0 {
		t.Fatalf("TargetedDropped = %d, want 0", stats.TargetedDropped)
	}
}
