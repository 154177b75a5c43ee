package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// hubWorld builds a world with one local rank (0) and worker slots for
// the remaining ranks, listening on a loopback port.
func hubWorld(t *testing.T, size int, cfg HubConfig) (*World, *Hub) {
	t.Helper()
	w, err := NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FirstRank = 1
	cfg.Slots = size - 1
	h, err := w.ListenTCP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return w, h
}

func TestTCPSendRecvBothWays(t *testing.T) {
	w, h := hubWorld(t, 2, HubConfig{Welcome: []byte("blob")})
	wc, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	if wc.Rank() != 1 {
		t.Fatalf("assigned rank %d, want 1", wc.Rank())
	}
	if wc.World().Size() != 2 {
		t.Fatalf("worker world size %d, want 2", wc.World().Size())
	}
	if string(wc.Welcome()) != "blob" {
		t.Fatalf("welcome %q", wc.Welcome())
	}

	c0, _ := w.Comm(0)
	cw, _ := wc.World().Comm(1)

	// Hub-local rank -> remote worker.
	if err := c0.Send(1, 7, []byte("down")); err != nil {
		t.Fatal(err)
	}
	data, st, err := cw.Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "down" || st.Source != 0 || st.Tag != 7 {
		t.Fatalf("data=%q st=%+v", data, st)
	}
	// The payload landed in the worker world's frame pool; releasing it
	// feeds worker-side reuse, never the hub's pool.
	cw.Release(data)
	_, _, puts := wc.World().FramePoolStats()
	if puts == 0 {
		t.Fatal("released frame did not reach the worker-side pool")
	}

	// Remote worker -> hub-local rank.
	if err := cw.Send(0, 9, []byte("up")); err != nil {
		t.Fatal(err)
	}
	data, st, err = c0.Recv(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "up" || st.Source != 1 || st.Tag != 9 {
		t.Fatalf("data=%q st=%+v", data, st)
	}
	c0.Release(data)
}

func TestTCPWorkerToWorkerRelay(t *testing.T) {
	_, h := hubWorld(t, 3, HubConfig{})
	wcA, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wcA.Close()
	wcB, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wcB.Close()
	if wcA.Rank() != 1 || wcB.Rank() != 2 {
		t.Fatalf("ranks %d,%d, want 1,2", wcA.Rank(), wcB.Rank())
	}
	ca, _ := wcA.World().Comm(1)
	cb, _ := wcB.World().Comm(2)
	if err := ca.Send(2, 3, []byte("via hub")); err != nil {
		t.Fatal(err)
	}
	data, st, err := cb.Recv(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "via hub" || st.Source != 1 {
		t.Fatalf("data=%q st=%+v", data, st)
	}
}

func TestTCPJoinMonotonicRanksAndSlotExhaustion(t *testing.T) {
	_, h := hubWorld(t, 3, HubConfig{})
	wc1, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc1.Close()
	wc2, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc2.Close()
	if wc1.Rank() != 1 || wc2.Rank() != 2 {
		t.Fatalf("ranks %d,%d", wc1.Rank(), wc2.Rank())
	}
	if h.Workers() != 2 || h.Joined() != 2 {
		t.Fatalf("workers=%d joined=%d", h.Workers(), h.Joined())
	}
	// Third join: slots exhausted, rejected with a reason.
	if _, err := JoinTCP(h.Addr()); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("expected rejection, got %v", err)
	}
}

func TestTCPWorkerCrashFiresOnLost(t *testing.T) {
	lost := make(chan int, 1)
	w, h := hubWorld(t, 2, HubConfig{
		OnLost: func(rank int) { lost <- rank },
	})
	wc, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Kill the connection without a goodbye: the hub must see the EOF,
	// tombstone the route, and report the loss.
	wc.link.conn.Close()
	select {
	case rank := <-lost:
		if rank != 1 {
			t.Fatalf("lost rank %d, want 1", rank)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnLost did not fire")
	}
	// Sends to the dead rank are swallowed, not errored: the rank has
	// been written off.
	c0, _ := w.Comm(0)
	if err := c0.Send(1, 1, []byte("into the void")); err != nil {
		t.Fatalf("send to dead rank errored: %v", err)
	}
}

// TestTCPHubGoodbyeEndsWorkerWorld: once the hub says goodbye, a worker
// rank still waiting on it is released — its Recv first delivers what
// was already sent, then fails with the world aborted by ErrHubClosed —
// instead of waiting forever for a run that is over.
func TestTCPHubGoodbyeEndsWorkerWorld(t *testing.T) {
	w, h := hubWorld(t, 2, HubConfig{})
	wc, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	c0, _ := w.Comm(0)
	cw, _ := wc.World().Comm(1)
	if err := c0.Send(1, 7, []byte("last")); err != nil {
		t.Fatal(err)
	}
	h.Close()
	data, _, err := cw.Recv(0, 7)
	if err != nil || string(data) != "last" {
		t.Fatalf("the message sent before the goodbye: %q, %v", data, err)
	}
	if _, _, err := cw.Recv(0, 7); !errors.Is(err, ErrAborted) {
		t.Fatalf("Recv after the hub's goodbye: %v, want ErrAborted", err)
	}
	if cause := wc.World().AbortErr(); !errors.Is(cause, ErrHubClosed) {
		t.Fatalf("worker world's abort cause %v, want ErrHubClosed", cause)
	}
}

func TestTCPCleanGoodbyeSuppressesOnLost(t *testing.T) {
	lost := make(chan int, 1)
	_, h := hubWorld(t, 2, HubConfig{
		OnLost: func(rank int) { lost <- rank },
	})
	wc, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wc.Close()
	// Give the hub time to process the goodbye; OnLost must stay silent.
	deadline := time.After(500 * time.Millisecond)
	for {
		select {
		case rank := <-lost:
			t.Fatalf("OnLost fired for cleanly departed rank %d", rank)
		case <-deadline:
		}
		break
	}
	if h.Workers() != 0 {
		t.Fatalf("workers=%d after goodbye, want 0", h.Workers())
	}
}

func TestTCPHeartbeatLossWedgedPeer(t *testing.T) {
	defer faultinject.Reset()
	// Suppress every worker heartbeat: the peer stays connected but
	// silent, and only the hub's read deadline can catch it.
	faultinject.Arm(faultinject.SiteTCPHeartbeat, faultinject.Plan{
		Hit: 1, Times: -1, Action: faultinject.ActError, Msg: "wedged",
	})
	lost := make(chan int, 1)
	_, h := hubWorld(t, 2, HubConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  150 * time.Millisecond,
		OnLost:            func(rank int) { lost <- rank },
	})
	wc, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	select {
	case rank := <-lost:
		if rank != 1 {
			t.Fatalf("lost rank %d, want 1", rank)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hub did not time out the wedged peer")
	}
	if got := faultinject.Hits(faultinject.SiteTCPHeartbeat); got == 0 {
		t.Fatal("heartbeat fault site never hit")
	}
}

func TestTCPConnDropSite(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.SiteTCPConnDrop, faultinject.Plan{
		Hit: 1, Action: faultinject.ActError, Msg: "injected drop",
	})
	lost := make(chan int, 1)
	_, h := hubWorld(t, 2, HubConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		OnLost:            func(rank int) { lost <- rank },
	})
	wc, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	// The worker's first frame (a heartbeat) trips the injected drop.
	select {
	case rank := <-lost:
		if rank != 1 {
			t.Fatalf("lost rank %d, want 1", rank)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("injected connection drop was not detected")
	}
}

func TestTCPTornFrameRejected(t *testing.T) {
	defer faultinject.Reset()
	lost := make(chan int, 1)
	_, h := hubWorld(t, 2, HubConfig{
		// Quiet heartbeats so the armed write fault hits the worker's
		// data frame, not a background beat.
		HeartbeatInterval: time.Hour,
		OnLost:            func(rank int) { lost <- rank },
	})
	wc, err := JoinTCP(h.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	faultinject.Arm(faultinject.SiteTCPFrame, faultinject.Plan{
		Hit: 1, Action: faultinject.ActError, Msg: "torn frame",
	})
	cw, _ := wc.World().Comm(1)
	if err := cw.Send(0, 1, []byte("never arrives")); err != nil {
		t.Fatal(err)
	}
	select {
	case rank := <-lost:
		if rank != 1 {
			t.Fatalf("lost rank %d, want 1", rank)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("torn frame was not rejected")
	}
}

func TestReadFrameRejectsHostileAndTruncated(t *testing.T) {
	var pool framePool
	// Hostile length prefix: rejected before any allocation.
	var hostile [5]byte
	binary.BigEndian.PutUint32(hostile[:4], uint32(MaxFrameBody+1))
	hostile[4] = kindData
	if _, err := readFrame(bytes.NewReader(hostile[:]), &pool); err == nil {
		t.Fatal("hostile length prefix accepted")
	}
	// Zero-length body: no kind byte to read.
	if _, err := readFrame(bytes.NewReader(make([]byte, 4)), &pool); err == nil {
		t.Fatal("empty frame accepted")
	}
	// Truncated data frame: header promises more payload than arrives.
	buf := &bytes.Buffer{}
	binary.BigEndian.PutUint32(hostile[:4], 1+12+100)
	buf.Write(hostile[:4])
	buf.WriteByte(kindData)
	buf.Write(make([]byte, 12))
	buf.Write(make([]byte, 50)) // 50 of the promised 100 payload bytes
	if _, err := readFrame(buf, &pool); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err=%v, want unexpected EOF", err)
	}
	// Oversized control frame: bounded separately (and far smaller).
	buf.Reset()
	binary.BigEndian.PutUint32(hostile[:4], uint32(maxControlBody+2))
	buf.Write(hostile[:4])
	buf.WriteByte(kindAbort)
	if _, err := readFrame(buf, &pool); err == nil || !strings.Contains(err.Error(), "control frame") {
		t.Fatalf("oversized control frame: %v", err)
	}
}

func FuzzTCPFrameHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, kindHeartbeat})
	f.Add([]byte{0, 0, 0, 13, kindData, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 5})
	seed := make([]byte, 4)
	binary.BigEndian.PutUint32(seed, uint32(MaxFrameBody+1))
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var pool framePool
		fr, err := readFrame(bytes.NewReader(data), &pool)
		if err != nil {
			return
		}
		if fr.kind == kindData {
			if len(fr.payload) > MaxFrameBody {
				t.Fatalf("payload %d exceeds bound", len(fr.payload))
			}
			pool.put(fr.payload)
		} else if len(fr.body) > maxControlBody {
			t.Fatalf("control body %d exceeds bound", len(fr.body))
		}
	})
}

// TestRecvTimeoutWakeupCount pins the single-wakeup property of the
// reworked RecvTimeout: one waiter's expiring deadline signals only that
// waiter. Before the rework every deadline Broadcast to all waiters, so
// N parked ranks woke N^2 times under idle polling.
func TestRecvTimeoutWakeupCount(t *testing.T) {
	w, _ := NewWorld(1)
	// Two handles on the same rank share one mailbox; each goroutine
	// owns its handle, matching the one-goroutine-per-Comm rule.
	cA, _ := w.Comm(0)
	cB, _ := w.Comm(0)

	bDone := make(chan bool, 1)
	go func() {
		_, _, ok, _ := cB.RecvTimeout(AnySource, AnyTag, 2*time.Second)
		bDone <- ok
	}()
	time.Sleep(20 * time.Millisecond) // let B park first

	if _, _, ok, err := cA.RecvTimeout(AnySource, AnyTag, 30*time.Millisecond); ok || err != nil {
		t.Fatalf("A: ok=%v err=%v", ok, err)
	}
	// A's deadline fired and woke A alone; B is still parked with its
	// own timer pending.
	if got := w.mailboxWakeups(0); got != 1 {
		t.Fatalf("wakeups after one expiry = %d, want 1 (expired timer woke other waiters)", got)
	}
	if err := cA.Send(0, 0, []byte("for B")); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-bDone:
		if !ok {
			t.Fatal("B timed out instead of receiving")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("B never woke for the send")
	}
	if got := w.mailboxWakeups(0); got != 2 {
		t.Fatalf("wakeups after delivery = %d, want 2", got)
	}
	// Timers are per handle: B's own deadline still fires when nobody
	// sends, and wakes B alone.
	go func() {
		_, _, ok, _ := cB.RecvTimeout(AnySource, AnyTag, 30*time.Millisecond)
		bDone <- ok
	}()
	select {
	case ok := <-bDone:
		if ok {
			t.Fatal("B received with nothing sent")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("B's own deadline never fired")
	}
	if got := w.mailboxWakeups(0); got != 3 {
		t.Fatalf("wakeups after B's expiry = %d, want 3", got)
	}
}
