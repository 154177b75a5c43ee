// Package mpi provides a simulated message-passing substrate with MPI-like
// semantics: a fixed set of ranks, tagged point-to-point messages with
// FIFO matching per (source, tag) pair, wildcard receives, and a barrier.
//
// The package substitutes for a real MPI library (the paper's runtime is
// an MPI program on Blue Gene/Q and Cray XE6 systems). Each rank runs as a
// goroutine inside one OS process; message payloads are byte slices, as
// they would be on the wire. The matching semantics relevant to the ADLB
// and Turbine protocols — non-overtaking delivery between a fixed
// (source, destination, tag) triple, ANY_SOURCE/ANY_TAG wildcards, and
// eager buffered sends — are preserved exactly.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Wildcard values for Recv.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// ErrAborted is returned from blocking calls after the world is aborted,
// either explicitly via World.Abort or by the deadlock watchdog. A receive
// still delivers a matching message queued before the abort, and fails
// only once none is left.
var ErrAborted = errors.New("mpi: world aborted")

// Status describes a matched message, mirroring MPI_Status.
type Status struct {
	Source int // rank that sent the message
	Tag    int // tag the message was sent with
	Count  int // payload length in bytes
}

// framePool recycles the buffers Send copies payloads into. Receivers own
// the buffer a Recv returns; a receiver that has fully consumed one may
// hand it back via Release, and the next Send of a fitting size reuses it
// instead of allocating. Reuse is LIFO (the most recently released fitting
// buffer is taken first), which keeps the reuse order deterministic for
// tests that pin the aliasing contract of zero-copy consumers.
type framePool struct {
	mu    sync.Mutex
	free  [][]byte
	bytes int // sum of caps of free buffers
	gets  uint64
	hits  uint64
	puts  uint64
}

const (
	// minFrameCap rounds small sends up so tiny request frames recycle
	// for each other instead of fragmenting the pool by exact size.
	minFrameCap = 256
	// framePoolBytes bounds the total memory parked in the pool; buffers
	// released beyond the budget are dropped to the garbage collector.
	framePoolBytes = 64 << 20
	// framePoolSlots bounds the free-list length so get's fit scan stays
	// cheap.
	framePoolSlots = 64
)

// get returns a buffer of length n, reusing a released frame when one is
// large enough.
func (p *framePool) get(n int) []byte {
	p.mu.Lock()
	p.gets++
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i]) >= n {
			buf := p.free[i][:n]
			p.bytes -= cap(buf)
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.hits++
			p.mu.Unlock()
			return buf
		}
	}
	p.mu.Unlock()
	if n < minFrameCap {
		return make([]byte, n, minFrameCap)
	}
	return make([]byte, n)
}

// put parks a buffer for reuse, dropping it if the pool is full. The
// caller must not touch buf afterwards: the next Send may own it.
func (p *framePool) put(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	p.mu.Lock()
	if p.bytes+cap(buf) <= framePoolBytes && len(p.free) < framePoolSlots {
		p.free = append(p.free, buf)
		p.bytes += cap(buf)
		p.puts++
	}
	p.mu.Unlock()
}

func (p *framePool) stats() (gets, hits, puts uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets, p.hits, p.puts
}

type envelope struct {
	source int
	tag    int
	data   []byte
}

// mailbox holds undelivered messages for one rank.
type mailbox struct {
	mu      sync.Mutex
	queue   []envelope
	aborted bool
	// waiters are the handles currently blocked in a matching wait. Each
	// has its own condition variable so a RecvTimeout deadline can wake
	// exactly the receiver it belongs to instead of broadcasting to every
	// parked rank handle.
	waiters []*waiter
	// wakeups counts returns from a blocked wait across all waiters;
	// tests pin the single-wakeup timer property of RecvTimeout with it.
	wakeups uint64
}

// waiter is one Comm handle's park slot: the condition its goroutine
// sleeps on in Recv or RecvTimeout, and the deadline timer RecvTimeout
// re-arms. A handle parks at most one goroutine at a time, so both are
// made at the handle's first park and reused by every later one: a
// server loop parking on every message allocates nothing.
// Every field but timer is guarded by mb.mu; timer belongs to the
// handle's goroutine.
type waiter struct {
	mb    *mailbox
	cond  sync.Cond
	timer *time.Timer
	// gen counts the deadlines armed on timer; fired counts the firings
	// accounted for, run or cancelled by Stop. A firing expires the wait
	// only when it brings fired up to gen, so a stale firing — one whose
	// wait ended by message while it was already on its way — cannot
	// expire a later wait of the same handle early.
	gen, fired uint64
	expired    bool
}

// fire is the deadline timer's callback.
func (w *waiter) fire() {
	w.mb.mu.Lock()
	w.fired++
	if w.fired == w.gen {
		w.expired = true
		w.cond.Signal()
	}
	w.mb.mu.Unlock()
}

func newMailbox() *mailbox {
	return &mailbox{}
}

// park registers c's waiter as blocked on mb, arming its deadline d when
// timed. mu must be held.
func (c *Comm) park(mb *mailbox, timed bool, d time.Duration) *waiter {
	w := c.waiter
	if w == nil {
		w = &waiter{mb: mb}
		w.cond.L = &mb.mu
		c.waiter = w
	}
	mb.waiters = append(mb.waiters, w)
	if timed {
		w.gen++
		w.expired = false
		if w.timer == nil {
			w.timer = time.AfterFunc(d, w.fire)
		} else {
			w.timer.Reset(d)
		}
	}
	return w
}

// unpark unregisters w and disarms its deadline; a firing Stop cancels
// is accounted for here, one already on its way is accounted for when it
// runs. mu must be held.
func (mb *mailbox) unpark(w *waiter, timed bool) {
	for i, x := range mb.waiters {
		if x == w {
			mb.waiters = append(mb.waiters[:i], mb.waiters[i+1:]...)
			break
		}
	}
	if timed && w.timer.Stop() {
		w.fired++
	}
}

// wakeAll signals every parked waiter; used on message arrival and on
// abort, where any waiter might be eligible. mu must be held.
func (mb *mailbox) wakeAll() {
	for _, w := range mb.waiters {
		w.cond.Signal()
	}
}

// World is a set of communicating ranks. Create one with NewWorld, then
// either call Run to execute an SPMD function on every rank, or obtain
// individual Comm handles with Comm for manual goroutine management.
type World struct {
	size    int
	boxes   []*mailbox
	barrier *barrierState
	frames  framePool

	// routes maps ranks living in other OS processes to their transport
	// links (see tcp.go). nil in purely in-process worlds. abortHooks run
	// after Abort has unblocked local ranks, so a transport can propagate
	// the abort to remote peers.
	routesMu   sync.RWMutex
	routes     map[int]*route
	abortHooks []func(error)

	abortOnce sync.Once
	abortErr  error
}

// route describes how to reach a rank that lives in another OS process.
// A dead route swallows sends silently: traffic addressed to a crashed
// rank behaves like messages to a failed MPI process that the
// fault-tolerance layer has already written off — in particular, the
// response to a crash-synthesized departure must not error the server.
type route struct {
	link *tcpLink
	dead atomic.Bool
}

func (w *World) routeFor(dest int) *route {
	w.routesMu.RLock()
	r := w.routes[dest]
	w.routesMu.RUnlock()
	return r
}

func (w *World) setRoute(rank int, r *route) {
	w.routesMu.Lock()
	if w.routes == nil {
		w.routes = make(map[int]*route)
	}
	w.routes[rank] = r
	w.routesMu.Unlock()
}

// onAbort registers a hook invoked (once) after the world aborts.
func (w *World) onAbort(fn func(error)) {
	w.routesMu.Lock()
	w.abortHooks = append(w.abortHooks, fn)
	w.routesMu.Unlock()
}

type barrierState struct {
	mu    sync.Mutex
	cond  *sync.Cond
	gen   int
	count int
	abort bool
}

// NewWorld creates a world with size ranks, numbered 0..size-1.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	w := &World{
		size:  size,
		boxes: make([]*mailbox, size),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	bs := &barrierState{}
	bs.cond = sync.NewCond(&bs.mu)
	w.barrier = bs
	return w, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Comm returns the communicator handle for the given rank.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, w.size)
	}
	return &Comm{world: w, rank: rank}, nil
}

// Run executes fn once per rank, each on its own goroutine, and waits for
// all ranks to return. The first non-nil error aborts the world, unblocking
// any ranks parked in Recv or Barrier, and is returned.
func (w *World) Run(fn func(c *Comm) error) error {
	ranks := make([]int, w.size)
	for r := range ranks {
		ranks[r] = r
	}
	return w.RunRanks(ranks, fn)
}

// RunRanks is Run for the given subset of the world's ranks: the hub of
// an elastic deployment launches only its local engines and servers,
// while the remaining ranks live in other processes (or never join) and
// are neither launched nor waited on. A panic in a launched rank is
// contained, reported by rank, and aborts the world like any other error;
// a rank's own error outranks the ErrAborted it caused in its peers.
func (w *World) RunRanks(ranks []int, fn func(c *Comm) error) error {
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for i, rank := range ranks {
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
					w.Abort(errs[i])
				}
			}()
			c, err := w.Comm(rank)
			if err == nil {
				err = fn(c)
			}
			if err != nil {
				errs[i] = err
				w.Abort(err)
			}
		}(i, rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrAborted) {
			return err
		}
	}
	// Every rank's error traces back to the abort; surface the abort cause
	// itself if it carries more than ErrAborted (e.g. a world aborted from
	// inside a server with no rank-level error of its own).
	if cause := w.AbortErr(); cause != nil && !errors.Is(cause, ErrAborted) {
		return cause
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Abort unblocks every rank parked in a blocking call; those calls return
// ErrAborted. Abort is idempotent; the first cause wins.
func (w *World) Abort(cause error) {
	w.abortOnce.Do(func() {
		if cause == nil {
			cause = ErrAborted
		}
		w.abortErr = cause
		for _, mb := range w.boxes {
			mb.mu.Lock()
			mb.aborted = true
			mb.wakeAll()
			mb.mu.Unlock()
		}
		w.barrier.mu.Lock()
		w.barrier.abort = true
		w.barrier.cond.Broadcast()
		w.barrier.mu.Unlock()
		w.routesMu.RLock()
		hooks := append([]func(error){}, w.abortHooks...)
		w.routesMu.RUnlock()
		for _, fn := range hooks {
			fn(cause)
		}
	})
}

// AbortErr returns the cause passed to Abort, or nil if the world is live.
func (w *World) AbortErr() error { return w.abortErr }

// Comm is one rank's handle on the world. All methods are safe for use by
// the single goroutine executing that rank; a Comm must not be shared
// between goroutines (matching MPI's one-thread-per-rank usage here).
type Comm struct {
	world  *World
	rank   int
	waiter *waiter // made at the first park, reused by every later one
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// World returns the underlying world.
func (c *Comm) World() *World { return c.world }

// Send delivers data to rank dest with the given tag. The send is eager
// and buffered: it never blocks. The payload is copied, so the caller may
// reuse the slice immediately. The copy lands in a buffer drawn from the
// world's frame pool; ownership of it transfers to the receiver, which
// may return it via Release once every slice aliasing it is dead.
func (c *Comm) Send(dest, tag int, data []byte) error {
	if dest < 0 || dest >= c.world.size {
		return fmt.Errorf("mpi: send from rank %d to invalid rank %d", c.rank, dest)
	}
	if tag < 0 {
		return fmt.Errorf("mpi: send with negative tag %d (tags must be >= 0)", tag)
	}
	if r := c.world.routeFor(dest); r != nil {
		if r.dead.Load() {
			// The destination process crashed. Swallow the send: the
			// fault-tolerance layer has already inferred its departure,
			// and replies addressed to it must not error the sender.
			return nil
		}
		return r.link.sendData(c.rank, dest, tag, data)
	}
	buf := c.world.frames.get(len(data))
	copy(buf, data)
	env := envelope{source: c.rank, tag: tag, data: buf}
	mb := c.world.boxes[dest]
	mb.mu.Lock()
	if mb.aborted {
		mb.mu.Unlock()
		return ErrAborted
	}
	mb.queue = append(mb.queue, env)
	mb.wakeAll()
	mb.mu.Unlock()
	return nil
}

// inject delivers an already-pooled buffer to a local rank's mailbox. It is
// the transport's entry point: buf must come from this world's frame pool
// (the TCP read loop fills pool buffers directly), and ownership transfers
// to the receiving rank exactly as with a local Send.
func (w *World) inject(src, dest, tag int, buf []byte) error {
	if dest < 0 || dest >= w.size || src < 0 || src >= w.size || tag < 0 {
		w.frames.put(buf)
		return fmt.Errorf("mpi: inject with invalid header src=%d dest=%d tag=%d", src, dest, tag)
	}
	env := envelope{source: src, tag: tag, data: buf}
	mb := w.boxes[dest]
	mb.mu.Lock()
	if mb.aborted {
		mb.mu.Unlock()
		w.frames.put(buf)
		return ErrAborted
	}
	mb.queue = append(mb.queue, env)
	mb.wakeAll()
	mb.mu.Unlock()
	return nil
}

// Release returns a buffer obtained from Recv to the world's frame pool
// so a later Send can reuse it. The caller gives up ownership: after
// Release, any slice still aliasing buf may be overwritten by unrelated
// traffic. Releasing is optional — unreleased frames are simply garbage
// collected — and a buffer must be released at most once.
func (c *Comm) Release(buf []byte) { c.world.frames.put(buf) }

// FramePoolStats reports the frame pool's counters: buffers requested by
// Send, requests satisfied by reuse, and buffers accepted by Release.
// Tests of zero-copy consumers use these to observe that reuse actually
// occurs (hits > 0), making the aliasing contract load-bearing.
func (w *World) FramePoolStats() (gets, hits, puts uint64) { return w.frames.stats() }

// match returns the index in q of the first message matching (source, tag)
// in arrival order, or -1.
func match(q []envelope, source, tag int) int {
	for i := range q {
		if (source == AnySource || q[i].source == source) &&
			(tag == AnyTag || q[i].tag == tag) {
			return i
		}
	}
	return -1
}

// Recv blocks until a message matching (source, tag) arrives, then returns
// its payload and status. source may be AnySource and tag may be AnyTag.
// Matching is FIFO in arrival order among eligible messages, which
// guarantees MPI's non-overtaking property per (source, tag).
func (c *Comm) Recv(source, tag int) ([]byte, Status, error) {
	data, st, _, err := c.recv(source, tag, false, 0)
	return data, st, err
}

// RecvTimeout behaves like Recv but gives up after d, returning ok=false
// with no error. An ADLB server uses it only while a deadline is armed
// (a steal retry, the hang watchdog), with d the time left until it.
func (c *Comm) RecvTimeout(source, tag int, d time.Duration) ([]byte, Status, bool, error) {
	return c.recv(source, tag, true, d)
}

// recv is Recv, and RecvTimeout when timed. A timed wait's deadline fires
// on this handle's waiter alone, so other parked ranks are not woken by
// deadlines that are not theirs.
func (c *Comm) recv(source, tag int, timed bool, d time.Duration) ([]byte, Status, bool, error) {
	mb := c.world.boxes[c.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	var (
		w   *waiter
		env envelope
		ok  bool
		err error
	)
	for {
		// A message queued before an abort is still delivered: a server
		// that drained and then ended the run has already answered its
		// clients, and those answers must not be lost to the abort.
		if i := match(mb.queue, source, tag); i >= 0 {
			env = mb.queue[i]
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
			ok = true
			break
		}
		if mb.aborted {
			err = ErrAborted
			break
		}
		if timed && (d <= 0 || w != nil && w.expired) {
			break
		}
		if w == nil {
			w = c.park(mb, timed, d)
		}
		w.cond.Wait()
		mb.wakeups++
	}
	if w != nil {
		mb.unpark(w, timed)
	}
	if !ok {
		return nil, Status{}, false, err
	}
	return env.data, Status{Source: env.source, Tag: env.tag, Count: len(env.data)}, true, nil
}

// mailboxWakeups reports how many times a blocked wait on rank's mailbox
// has returned. Tests use it to pin that one expiring RecvTimeout does not
// wake unrelated waiters.
func (w *World) mailboxWakeups(rank int) uint64 {
	mb := w.boxes[rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.wakeups
}

// Barrier blocks until every rank in the world has entered the barrier.
func (c *Comm) Barrier() error {
	b := c.world.barrier
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.abort {
		return ErrAborted
	}
	gen := b.gen
	b.count++
	if b.count == c.world.size {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	for b.gen == gen && !b.abort {
		b.cond.Wait()
	}
	if b.abort {
		return ErrAborted
	}
	return nil
}
