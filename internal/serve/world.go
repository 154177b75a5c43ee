package serve

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/adlb"
	"repro/internal/lang"
	"repro/internal/mpi"
)

// Warm-world client ranks (the remaining ranks are ADLB servers).
const (
	gatewayRank   = 0
	collectorRank = 1
	workerRank0   = 2
)

// runWorld runs the warm fragment world until shutdown drains it.
func (s *Server) runWorld() error {
	size := workerRank0 + s.cfg.Workers + s.cfg.Servers
	w, err := mpi.NewWorld(size)
	if err != nil {
		return err
	}
	acfg := adlb.Config{
		Servers:    s.cfg.Servers,
		Types:      2,
		NotifyType: typeResp,
		Stats:      s.adlbStats,
	}
	l := adlb.NewLayout(size, s.cfg.Servers)
	return w.Run(func(c *mpi.Comm) error {
		if l.IsServer(c.Rank()) {
			return adlb.Serve(c, acfg)
		}
		cl, err := adlb.NewClient(c, acfg)
		if err != nil {
			return err
		}
		switch c.Rank() {
		case gatewayRank:
			return s.gatewayLoop(cl)
		case collectorRank:
			return s.collectorLoop(cl)
		default:
			return s.workerLoop(cl)
		}
	})
}

// gatewayLoop publishes the submitter client to the API handlers and on
// shutdown walks the drain sequence: sentinel to the collector, then
// Leave — after which ordinary quiescence collects the parked workers.
// The gateway never parks in Get, so until it Leaves its home server
// counts it mid-task: that alone holds the idle world open, keeping
// termination tokens from starting or passing and the hang watchdog from
// firing.
func (s *Server) gatewayLoop(cl *adlb.Client) error {
	s.gw = cl
	close(s.gwReady)
	<-s.stop
	sentinel, err := fragResp{ReqID: shutdownReqID}.encode()
	if err != nil {
		return err
	}
	s.gwMu.Lock()
	defer s.gwMu.Unlock()
	if err := cl.Put(typeResp, 0, collectorRank, sentinel); err != nil {
		return fmt.Errorf("serve: shutdown sentinel: %w", err)
	}
	return cl.Leave()
}

// collectorLoop routes each completed fragment to its waiting request
// until the shutdown sentinel arrives.
func (s *Server) collectorLoop(cl *adlb.Client) error {
	for {
		payload, ok, err := cl.Get(typeResp)
		if err != nil {
			return err
		}
		if !ok {
			// Unreachable while the gateway holds the world open; a
			// defensive clean exit.
			return nil
		}
		r, err := decodeResp(payload)
		if err != nil {
			s.stats.LateResponses.Add(1)
			continue
		}
		if r.ReqID == shutdownReqID {
			return cl.Leave()
		}
		s.deliver(r)
	}
}

// deliver hands a response to its waiting request. Responses with no
// waiter — the request timed out, or a lease-reclaimed task executed
// twice — are dropped and counted.
func (s *Server) deliver(r fragResp) {
	s.pendMu.Lock()
	ch, ok := s.pending[r.ReqID]
	s.pendMu.Unlock()
	if !ok {
		s.stats.LateResponses.Add(1)
		return
	}
	select {
	case ch <- r:
	default:
		s.stats.LateResponses.Add(1)
	}
}

// workerLoop is one fragment worker rank: leased Gets over the task
// queue, evaluation against its per-tenant engine pool, results targeted
// at the collector. User errors travel back as typed responses — a lease
// Fail is reserved for worker death, which the servers recover from by
// reclaim-and-requeue.
func (s *Server) workerLoop(cl *adlb.Client) error {
	outBuf := &bytes.Buffer{}
	pool := lang.NewPool(lang.Host{Out: outBuf}, s.cfg.PoolEngines, s.poolStats)
	for {
		payload, _, ok, err := cl.GetLeased(typeTask)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		t, err := decodeTask(payload)
		if err != nil {
			// Malformed task: nothing to respond to; the implicit lease
			// settlement on the next Get retires it.
			continue
		}
		b, err := evalTask(pool, outBuf, t).encode()
		if err != nil {
			// An unframeable (> 4 GiB) value or output: say so instead.
			b, err = fragResp{ReqID: t.ReqID, Err: err.Error()}.encode()
		}
		if err == nil {
			err = cl.Put(typeResp, 0, collectorRank, b)
		}
		if err != nil {
			return err
		}
	}
}

// evalTask runs one fragment against the worker's pool, capturing the
// interpreter's prints for the response.
func evalTask(pool *lang.Pool, outBuf *bytes.Buffer, t fragTask) fragResp {
	policy := lang.PolicyRetain
	if t.Reinit {
		policy = lang.PolicyReinit
	}
	outBuf.Reset()
	v, err := pool.Eval(t.Lang, t.Tenant, t.Call, policy)
	if err != nil {
		var te *lang.TaskError
		retriable := errors.As(err, &te) && te.Retriable
		return fragResp{ReqID: t.ReqID, Err: err.Error(), Retriable: retriable, Output: outBuf.String()}
	}
	return fragResp{ReqID: t.ReqID, Value: v, Output: outBuf.String()}
}
