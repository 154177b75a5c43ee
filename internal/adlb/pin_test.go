package adlb

// Tests for the serving-world liveness contract: a client that never
// parks pins the world open through idle periods that would otherwise
// trigger quiescence termination — its home server counts it mid-task,
// so no termination token starts or passes there — and its departure
// (Leave) lets ordinary Safra detection drain the remaining clients.

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mpi"
)

var errPinWindowElapsed = errors.New("pin window elapsed")

// runPinWorld parks every client in Get — the exact all-idle state that
// terminates a batch world — except rank 0 when hold is set, which never
// parks, and aborts the world with errPinWindowElapsed after window. It
// returns whether any client saw NO_MORE_WORK (i.e. quiescence
// termination fired) and whether the abort fired.
func runPinWorld(t *testing.T, size, servers int, hold bool, window time.Duration) (terminated, aborted bool) {
	t.Helper()
	cfg := testConfig(servers)
	w, err := mpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := make(chan struct{})
	timer := time.AfterFunc(window, func() {
		w.Abort(errPinWindowElapsed)
		close(elapsed)
	})
	defer timer.Stop()
	fail := time.AfterFunc(30*time.Second, func() { w.Abort(fmt.Errorf("test watchdog: world hung")) })
	defer fail.Stop()
	var sawNoMoreWork atomic.Bool
	runErr := w.Run(func(c *mpi.Comm) error {
		l := NewLayout(size, servers)
		if l.IsServer(c.Rank()) {
			return Serve(c, cfg)
		}
		cl, err := NewClient(c, cfg)
		if err != nil {
			return err
		}
		if hold && c.Rank() == 0 {
			<-elapsed
			return nil
		}
		_, ok, err := cl.Get(typeWork)
		if err != nil {
			return err
		}
		if !ok {
			sawNoMoreWork.Store(true)
		}
		return nil
	})
	if runErr != nil && !errors.Is(runErr, errPinWindowElapsed) {
		t.Fatalf("world failed for an unexpected reason: %v", runErr)
	}
	return sawNoMoreWork.Load(), errors.Is(runErr, errPinWindowElapsed)
}

// TestPinnedIdleWorldStaysUp: every client but one parked over empty
// queues, and that one never parks. Quiescence termination must NOT fire
// — the world is still up when the observation window closes. The
// servers act on the last park as it arrives, so an all-parked world
// reaches termination well inside the 200ms window (proven by
// TestUnpinnedIdleWorldTerminates below).
func TestPinnedIdleWorldStaysUp(t *testing.T) {
	terminated, aborted := runPinWorld(t, 3, 1, true, 200*time.Millisecond)
	if terminated {
		t.Fatal("world terminated by quiescence while a client never parked")
	}
	if !aborted {
		t.Fatal("expected the observation-window abort to end the run")
	}
}

// TestUnpinnedIdleWorldTerminates is the control: the same world with
// every client parked terminates (NO_MORE_WORK) before the window closes,
// proving the window in the test above is long enough to be meaningful.
func TestUnpinnedIdleWorldTerminates(t *testing.T) {
	terminated, aborted := runPinWorld(t, 3, 1, false, 10*time.Second)
	if !terminated || aborted {
		t.Fatalf("all-parked idle world: terminated=%v aborted=%v, want clean quiescence", terminated, aborted)
	}
}

// TestPinnedIdleWorldStaysUpAcrossServerRing: with two servers the busy
// client keeps only its home server from reporting passive, but that
// stalls the termination token for the whole ring.
func TestPinnedIdleWorldStaysUpAcrossServerRing(t *testing.T) {
	terminated, aborted := runPinWorld(t, 6, 2, true, 200*time.Millisecond)
	if terminated {
		t.Fatal("server ring terminated by quiescence while a client never parked")
	}
	if !aborted {
		t.Fatal("expected the observation-window abort to end the run")
	}
}

// TestPinReleasedByLeaveDrainsWorld: the serving shutdown sequence on a
// two-server ring. The gateway idles without parking while the workers
// park, then Leaves; ordinary quiescence must then hand every parked
// worker NO_MORE_WORK — no abort, no watchdog.
func TestPinReleasedByLeaveDrainsWorld(t *testing.T) {
	runWorld(t, 6, 2, func(cl *Client) error {
		if cl.Rank() == 0 {
			// Give the workers time to park: the world is now all-idle
			// except for this never-parking gateway.
			time.Sleep(50 * time.Millisecond)
			return cl.Leave()
		}
		_, ok, err := cl.Get(typeWork)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("unexpected work delivered")
		}
		return nil
	})
}

// TestPinnedGatewayServesAfterIdle: the serving steady state — a gateway
// that submits work after a long idle period outside Get must find the
// collector still parked and the world alive.
func TestPinnedGatewayServesAfterIdle(t *testing.T) {
	runWorld(t, 3, 1, func(cl *Client) error {
		switch cl.Rank() {
		case 0:
			// Park in Get like a response collector: safe while the
			// gateway never parks; otherwise this parked state would
			// terminate the world and hand us NO_MORE_WORK.
			payload, ok, err := cl.Get(typeControl)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("collector got NO_MORE_WORK while the gateway was idle")
			}
			if string(payload) != "response" {
				return fmt.Errorf("payload = %q", payload)
			}
			return cl.Leave()
		case 1:
			// The gateway idles outside Get (mid-request from the server's
			// view), then answers the collector and drains.
			time.Sleep(100 * time.Millisecond)
			if err := cl.Put(typeControl, 0, 0, []byte("response")); err != nil {
				return err
			}
			_, ok, err := cl.Get(typeWork)
			if err != nil {
				return err
			}
			if ok {
				return fmt.Errorf("unexpected work delivered")
			}
			return nil
		}
		return nil
	})
}
