package adlb

// What the server loop waits on: a message, or an armed deadline (a
// steal retry or the hang watchdog), never a period.

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestWatchdogFiresAfterWatchdogIdle: stranded work is diagnosed once
// WatchdogIdle of wall time has passed without progress, not sooner,
// and the diagnostic reports at least that much idle time.
func TestWatchdogFiresAfterWatchdogIdle(t *testing.T) {
	const idle = 100 * time.Millisecond
	cfg := testConfig(1)
	cfg.WatchdogIdle = idle
	start := time.Now()
	_, err := runWorldCfg(t, 3, cfg, func(cl *Client) error {
		if cl.Rank() == 0 {
			// Both clients only ever ask for control work.
			if err := cl.Put(typeWork, 0, AnyRank, []byte("stranded-task")); err != nil {
				return err
			}
		}
		_, _, err := cl.Get(typeControl)
		return err
	})
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "hang detected") {
		t.Fatalf("err = %v, want the hang diagnostic", err)
	}
	if took < idle || took > 2*time.Second {
		t.Fatalf("hang diagnosed after %v, want between %v and 2s", took, idle)
	}
	m := regexp.MustCompile(`no progress for (\S+) `).FindStringSubmatch(err.Error())
	if m == nil {
		t.Fatalf("diagnostic %q does not report the idle time", err)
	}
	if d, perr := time.ParseDuration(m[1]); perr != nil || d < idle {
		t.Fatalf("reported idle time %q, want at least %v", m[1], idle)
	}
}

// testServer builds server index idx of a world of size ranks with the
// given number of servers; its Comm is live, so what it sends queues
// unread in the other ranks' mailboxes.
func testServer(t *testing.T, size, servers, idx int, cfg Config) *server {
	t.Helper()
	w, err := mpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Servers, cfg.Types = servers, 2
	l := NewLayout(size, servers)
	c, err := w.Comm(l.ServerRank(idx))
	if err != nil {
		t.Fatal(err)
	}
	return newServer(c, cfg, l)
}

func (s *server) testPark(client, typ int) {
	s.parked[client] = parkedReq{typ: typ}
	s.parkOrder = append(s.parkOrder, client)
}

// stealReply hands s a steal response carrying items.
func (s *server) stealReply(t *testing.T, items ...workItem) {
	t.Helper()
	e := &encoder{}
	e.u32(uint32(len(items)))
	for _, w := range items {
		encodeWorkItem(e, w)
	}
	frame, err := e.frame()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.handleServer(sopStealResp, &decoder{buf: frame}, s.l.ServerRank(1-s.idx)); err != nil {
		t.Fatal(err)
	}
}

// TestServerWaitsOnlyOnArmedDeadlines pins the server's wait: a plain
// Recv unless a steal retry or the hang watchdog is armed, and then the
// time left until the earlier one.
func TestServerWaitsOnlyOnArmedDeadlines(t *testing.T) {
	const limit = time.Minute
	cfg := Config{WatchdogIdle: limit}
	stranded := workItem{Type: typeWork, Target: AnyRank, Payload: []byte("stranded")}

	t.Run("client-mid-task", func(t *testing.T) {
		s := testServer(t, 3, 1, 0, cfg)
		if err := s.watch(); err != nil {
			t.Fatal(err)
		}
		if d, armed := s.wait(); armed {
			t.Fatalf("no client parked: wait armed for %v, want a plain Recv", d)
		}
		s.testPark(0, typeControl)
		s.enqueue(stranded)
		if err := s.watch(); err != nil {
			t.Fatal(err)
		}
		if d, armed := s.wait(); armed {
			t.Fatalf("client 1 mid-task: wait armed for %v, want a plain Recv", d)
		}
	})

	t.Run("empty-steal-reply", func(t *testing.T) {
		s := testServer(t, 4, 2, 0, cfg)
		s.testPark(0, typeWork)
		s.maybeSteal()
		if !s.stealOut {
			t.Fatal("a parked client sent no steal")
		}
		if d, armed := s.wait(); armed {
			t.Fatalf("steal outstanding: wait armed for %v, want a plain Recv", d)
		}
		s.stealReply(t)
		d, armed := s.wait()
		if !armed || d > minStealBackoff {
			t.Fatalf("after an empty reply: wait = %v, %v; want armed, at most %v", d, armed, minStealBackoff)
		}
		for range 10 {
			s.maybeSteal()
			s.stealReply(t)
		}
		if s.stealBackoff != maxStealBackoff {
			t.Fatalf("backoff after 11 empty replies = %v, want the %v cap", s.stealBackoff, maxStealBackoff)
		}
		s.maybeSteal()
		s.stealReply(t, workItem{Type: typeWork, Target: AnyRank, Payload: []byte("stolen")})
		if d, armed := s.wait(); armed || s.stealBackoff != 0 {
			t.Fatalf("after a steal hit: wait = %v, %v, backoff %v; want a plain Recv and no backoff", d, armed, s.stealBackoff)
		}
	})

	t.Run("all-parked-work-stranded", func(t *testing.T) {
		s := testServer(t, 3, 1, 0, cfg)
		s.enqueue(stranded)
		s.testPark(0, typeControl)
		s.testPark(1, typeControl)
		if err := s.watch(); err != nil {
			t.Fatal(err)
		}
		d, armed := s.wait()
		if !armed || d <= limit-time.Second || d > limit {
			t.Fatalf("all parked, work stranded: wait = %v, %v; want armed for about %v", d, armed, limit)
		}
		s.watchAt = time.Now()
		if err := s.watch(); err == nil || !strings.Contains(err.Error(), "hang detected") {
			t.Fatalf("expired watchdog: err = %v, want the hang diagnostic", err)
		}

		s.draining = true
		if err := s.watch(); err != nil {
			t.Fatal(err)
		}
		if d, armed := s.wait(); armed {
			t.Fatalf("draining: wait armed for %v, want a plain Recv", d)
		}
		s.draining, s.cfg.WatchdogIdle = false, -1
		if err := s.watch(); err != nil {
			t.Fatal(err)
		}
		if d, armed := s.wait(); armed {
			t.Fatalf("watchdog off: wait armed for %v, want a plain Recv", d)
		}
	})
}
