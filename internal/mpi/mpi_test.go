package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("expected error for size 0")
	}
	if _, err := NewWorld(-3); err == nil {
		t.Fatal("expected error for negative size")
	}
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 4 {
		t.Fatalf("size = %d, want 4", w.Size())
	}
	if _, err := w.Comm(4); err == nil {
		t.Fatal("expected error for out-of-range rank")
	}
	if _, err := w.Comm(-1); err == nil {
		t.Fatal("expected error for negative rank")
	}
}

func TestSendRecvBasic(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(1, 7, []byte("hello"))
		case 1:
			data, st, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(data) != "hello" {
				return fmt.Errorf("payload = %q", data)
			}
			if st.Source != 0 || st.Tag != 7 || st.Count != 5 {
				return fmt.Errorf("status = %+v", st)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	w, _ := NewWorld(2)
	c, _ := w.Comm(0)
	if err := c.Send(5, 0, nil); err == nil {
		t.Fatal("expected error for invalid dest")
	}
	if err := c.Send(1, -2, nil); err == nil {
		t.Fatal("expected error for negative tag")
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w, _ := NewWorld(2)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	buf := []byte("abc")
	if err := c0.Send(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // mutate after send; receiver must see original
	got, _, err := c1.Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("got %q, want abc", got)
	}
}

func TestFIFOPerSourceTag(t *testing.T) {
	w, _ := NewWorld(2)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	for i := 0; i < 100; i++ {
		if err := c0.Send(1, 3, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		data, _, err := c1.Recv(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(i) {
			t.Fatalf("message %d out of order: got %d", i, data[0])
		}
	}
}

func TestTagSelectivity(t *testing.T) {
	w, _ := NewWorld(2)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	c0.Send(1, 1, []byte("one"))
	c0.Send(1, 2, []byte("two"))
	// Receive tag 2 first even though tag 1 arrived earlier.
	data, _, err := c1.Recv(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "two" {
		t.Fatalf("got %q, want two", data)
	}
	data, _, _ = c1.Recv(0, 1)
	if string(data) != "one" {
		t.Fatalf("got %q, want one", data)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w, _ := NewWorld(3)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	c2, _ := w.Comm(2)
	c1.Send(0, 5, []byte("from1"))
	c2.Send(0, 9, []byte("from2"))
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		data, st, err := c0.Recv(AnySource, AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		seen[string(data)] = true
		if st.Source != 1 && st.Source != 2 {
			t.Fatalf("bad source %d", st.Source)
		}
	}
	if !seen["from1"] || !seen["from2"] {
		t.Fatalf("missing messages: %v", seen)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	w, _ := NewWorld(2)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	var delivered atomic.Bool
	done := make(chan struct{})
	go func() {
		data, _, err := c1.Recv(0, 0)
		if err == nil && string(data) == "late" && delivered.Load() {
			close(done)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	delivered.Store(true)
	c0.Send(1, 0, []byte("late"))
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("recv did not complete")
	}
}

func TestRecvTimeout(t *testing.T) {
	w, _ := NewWorld(2)
	c1, _ := w.Comm(1)
	start := time.Now()
	_, _, ok, err := c1.RecvTimeout(0, 0, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("expected timeout")
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("returned too early")
	}
	// And that it does deliver when a message is already present.
	c0, _ := w.Comm(0)
	c0.Send(1, 0, []byte("x"))
	data, st, ok, err := c1.RecvTimeout(AnySource, AnyTag, time.Second)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if string(data) != "x" || st.Source != 0 {
		t.Fatalf("data=%q st=%+v", data, st)
	}
}

// TestRecvTimeoutStaleFiringDoesNotExpireLaterWait pins the generation
// check on the reusable deadline timer. A wait that ends by message while
// its timer's firing is already on its way (Stop reports false) leaves
// that firing to land during the handle's next wait; it must not expire
// the next wait, whose own deadline is far off.
func TestRecvTimeoutStaleFiringDoesNotExpireLaterWait(t *testing.T) {
	w, _ := NewWorld(1)
	c, _ := w.Comm(0)
	mb := w.boxes[0]

	// Deterministic: hold the mailbox lock across the first deadline so
	// its firing is running but blocked when the wait ends. A loaded
	// machine may not run the timer within the sleep; then Stop cancels
	// it, and the setup is tried again with a longer sleep.
	var wt *waiter
	for sleep := 20 * time.Millisecond; ; sleep *= 2 {
		mb.mu.Lock()
		wt = c.park(mb, true, time.Millisecond)
		time.Sleep(sleep)
		mb.unpark(wt, true)
		if wt.fired != wt.gen {
			break
		}
		mb.mu.Unlock()
		if sleep > 2*time.Second {
			t.Fatal("the first deadline's firing was never in flight when its wait ended")
		}
	}
	c.park(mb, true, time.Hour)
	mb.mu.Unlock()
	time.Sleep(20 * time.Millisecond) // the stale firing runs now
	mb.mu.Lock()
	expired := wt.expired
	mb.unpark(wt, true)
	mb.mu.Unlock()
	if expired {
		t.Fatal("the first wait's firing expired the second wait")
	}

	// Through the API: a RecvTimeout that returns by message close to its
	// deadline, then one that waits, many times over. The second never
	// returns before its own deadline.
	c2, _ := w.Comm(0)
	for i := 0; i < 20; i++ {
		go func() {
			time.Sleep(time.Millisecond)
			c2.Send(0, 0, []byte("m"))
		}()
		data, _, ok, err := c.RecvTimeout(AnySource, AnyTag, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			data, _, err = c.Recv(AnySource, AnyTag) // the deadline won; drain
			if err != nil {
				t.Fatal(err)
			}
		}
		c.Release(data)
		start := time.Now()
		if _, _, ok, err := c.RecvTimeout(AnySource, AnyTag, 10*time.Millisecond); ok || err != nil {
			t.Fatalf("round %d: ok=%v err=%v", i, ok, err)
		}
		if el := time.Since(start); el < 10*time.Millisecond {
			t.Fatalf("round %d: second wait expired after %v, before its 10ms deadline", i, el)
		}
	}
}

// TestRecvTimeoutAndRecvParkAllocateNothing pins the reusable park: after
// the handle's first park, a Recv that blocks until a peer answers and a
// RecvTimeout that expires allocate nothing.
func TestRecvTimeoutAndRecvParkAllocateNothing(t *testing.T) {
	w, _ := NewWorld(2)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	const stop = 1
	go func() { // echo: every message on tag 0 goes straight back
		for {
			data, st, err := c1.Recv(0, AnyTag)
			if err != nil || st.Tag == stop {
				return
			}
			err = c1.Send(0, 0, data)
			c1.Release(data)
			if err != nil {
				return
			}
		}
	}()
	defer c0.Send(1, stop, nil)
	msg := []byte("ping")
	before := w.mailboxWakeups(0)
	if n := testing.AllocsPerRun(200, func() {
		if err := c0.Send(1, 0, msg); err != nil {
			t.Fatal(err)
		}
		data, _, err := c0.Recv(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		c0.Release(data)
	}); n != 0 {
		t.Errorf("Recv round trip: %v allocations per run, want 0", n)
	}
	if w.mailboxWakeups(0) == before {
		t.Error("Recv never parked; the measurement covered no park")
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, _, ok, err := c0.RecvTimeout(1, 0, 50*time.Microsecond); ok || err != nil {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	}); n != 0 {
		t.Errorf("expiring RecvTimeout: %v allocations per run, want 0", n)
	}
}

func TestBarrier(t *testing.T) {
	const n = 8
	w, _ := NewWorld(n)
	var phase atomic.Int32
	err := w.Run(func(c *Comm) error {
		phase.Add(1)
		if err := c.Barrier(); err != nil {
			return err
		}
		// After the barrier, every rank must have incremented.
		if got := phase.Load(); got != n {
			return fmt.Errorf("rank %d saw phase %d before barrier release", c.Rank(), got)
		}
		return c.Barrier() // reusable across generations
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortUnblocksRecv(t *testing.T) {
	w, _ := NewWorld(2)
	c1, _ := w.Comm(1)
	done := make(chan error, 1)
	go func() {
		_, _, err := c1.Recv(0, 0)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	w.Abort(errors.New("test abort"))
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abort did not unblock recv")
	}
	if w.AbortErr() == nil {
		t.Fatal("AbortErr should report cause")
	}
	// Sends into an aborted world fail.
	c0, _ := w.Comm(0)
	if err := c0.Send(1, 0, nil); !errors.Is(err, ErrAborted) {
		t.Fatalf("send after abort: %v", err)
	}
}

// TestRecvDeliversQueuedBeforeAbort: a message queued before the world
// aborts is still received, by Recv and RecvTimeout alike, in order; a
// receive fails with ErrAborted only once nothing queued matches.
func TestRecvDeliversQueuedBeforeAbort(t *testing.T) {
	w, _ := NewWorld(2)
	c0, _ := w.Comm(0)
	c1, _ := w.Comm(1)
	for _, msg := range []string{"first", "second"} {
		if err := c0.Send(1, 3, []byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	w.Abort(errors.New("test abort"))
	if _, _, err := c1.Recv(0, 4); !errors.Is(err, ErrAborted) {
		t.Fatalf("recv of an unqueued tag after abort: err = %v, want ErrAborted", err)
	}
	data, st, err := c1.Recv(AnySource, AnyTag)
	if err != nil || string(data) != "first" || st.Source != 0 || st.Tag != 3 {
		t.Fatalf("recv after abort = %q %+v %v, want the first queued message", data, st, err)
	}
	data, _, ok, err := c1.RecvTimeout(0, 3, time.Hour)
	if err != nil || !ok || string(data) != "second" {
		t.Fatalf("recv timeout after abort = %q %v %v, want the second queued message", data, ok, err)
	}
	if _, _, ok, err := c1.RecvTimeout(0, 3, time.Hour); ok || !errors.Is(err, ErrAborted) {
		t.Fatalf("recv of an emptied queue after abort: ok = %v, err = %v, want ErrAborted", ok, err)
	}
}

func TestRunPropagatesError(t *testing.T) {
	w, _ := NewWorld(3)
	sentinel := errors.New("rank failure")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		// Other ranks block; abort must release them.
		_, _, err := c.Recv(AnySource, AnyTag)
		return err
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("boom")
		}
		_, _, err := c.Recv(AnySource, AnyTag)
		return err
	})
	if err == nil {
		t.Fatal("expected panic to surface as error")
	}
}

// RunRanks launches a subset of the world (the elastic hub's local
// engines and servers): unlaunched ranks are never waited on, and the
// launched ones get Run's containment and error precedence.
func TestRunRanksSubset(t *testing.T) {
	t.Run("unlaunched ranks are not waited on", func(t *testing.T) {
		w, _ := NewWorld(4)
		var ran [4]bool
		if err := w.RunRanks([]int{0, 3}, func(c *Comm) error {
			ran[c.Rank()] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ran != [4]bool{true, false, false, true} {
			t.Fatalf("ranks run = %v, want only 0 and 3", ran)
		}
	})
	t.Run("panic aborts the world and is reported by rank", func(t *testing.T) {
		w, _ := NewWorld(4)
		err := w.RunRanks([]int{1, 3}, func(c *Comm) error {
			if c.Rank() == 3 {
				panic("boom")
			}
			_, _, err := c.Recv(AnySource, AnyTag) // released by the abort
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "rank 3 panicked: boom") {
			t.Fatalf("err = %v, want the panic named by rank", err)
		}
		if w.AbortErr() == nil {
			t.Fatal("panic did not abort the world")
		}
	})
	t.Run("a real error outranks ErrAborted", func(t *testing.T) {
		w, _ := NewWorld(4)
		sentinel := errors.New("rank failure")
		// The failing rank is listed last, so its peer's ErrAborted
		// precedes it in launch order.
		err := w.RunRanks([]int{0, 2}, func(c *Comm) error {
			if c.Rank() == 2 {
				return sentinel
			}
			_, _, err := c.Recv(AnySource, AnyTag)
			return err
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
	})
	t.Run("out-of-range rank is an error", func(t *testing.T) {
		w, _ := NewWorld(2)
		if err := w.RunRanks([]int{2}, func(c *Comm) error { return nil }); err == nil {
			t.Fatal("rank 2 of a 2-rank world was launched")
		}
	})
}

// TestMessageMatchingProperty checks that for a random interleaving of
// tagged sends, per-(source,tag) order is always preserved at the receiver.
func TestMessageMatchingProperty(t *testing.T) {
	f := func(tagsRaw []uint8) bool {
		if len(tagsRaw) == 0 || len(tagsRaw) > 200 {
			return true
		}
		w, _ := NewWorld(2)
		c0, _ := w.Comm(0)
		c1, _ := w.Comm(1)
		perTag := map[int][]int{}
		for i, tr := range tagsRaw {
			tag := int(tr % 4)
			c0.Send(1, tag, []byte{byte(i)})
			perTag[tag] = append(perTag[tag], i)
		}
		// Drain one tag at a time; order within tag must match send order.
		for tag, want := range perTag {
			for _, wi := range want {
				data, _, err := c1.Recv(0, tag)
				if err != nil || int(data[0]) != wi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestManyToOneStress(t *testing.T) {
	const senders = 8
	const per = 200
	w, _ := NewWorld(senders + 1)
	var total atomic.Int64
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			var buf bytes.Buffer
			for i := 0; i < senders*per; i++ {
				data, _, err := c.Recv(AnySource, 1)
				if err != nil {
					return err
				}
				buf.Write(data)
				total.Add(1)
			}
			return nil
		}
		for i := 0; i < per; i++ {
			if err := c.Send(0, 1, []byte{byte(c.Rank())}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != senders*per {
		t.Fatalf("received %d, want %d", total.Load(), senders*per)
	}
}
