// TCP transport: ranks in other OS processes, reached over length-prefixed
// socket frames.
//
// The topology is a star. The hub process owns a full-size World and runs
// the engine and server ranks as local goroutines; each worker process owns
// a same-size World in which only its own rank is live, with every other
// rank routed over a single uplink to the hub. The hub relays
// worker-to-worker traffic (ADLB itself never needs it — clients talk only
// to servers — but the Comm surface promises any-to-any delivery).
//
// Frames are `u32 big-endian body length | kind byte | body`. Data frames
// carry `u32 src | u32 dest | u32 tag | payload`, where the payload is the
// frame a rank handed to SendFrame, written as it lies.
// The receiving read loop reads each payload directly into a buffer drawn
// from its World's frame pool, so the zero-copy aliasing contract of
// doc.go's "Data plane and memory model" holds per process: a frame a rank
// receives is pool-owned by that rank until it Releases it, and pool reuse
// never crosses a process boundary.
//
// Crash detection is symmetric heartbeats: both ends send kindHeartbeat
// every interval and arm a read deadline of the timeout (parameters are
// chosen by the hub and shipped in the welcome frame). A worker that
// vanishes (EOF, RST, deadline expiry, torn frame) is reported through
// HubConfig.OnLost so the caller can synthesize an ADLB Leave; the rank's
// route is tombstoned so later sends to it are swallowed rather than
// errored. A hub that vanishes aborts the worker's World, and so does its
// goodbye, with ErrHubClosed.
package mpi

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// Frame kinds on the TCP transport.
const (
	kindData      byte = 1 // u32 src, u32 dest, u32 tag, payload
	kindHello     byte = 2 // magic string; worker's first frame
	kindWelcome   byte = 3 // u32 rank, size, hbIntervalMs, hbTimeoutMs, blob
	kindHeartbeat byte = 4 // empty; liveness only
	kindGoodbye   byte = 5 // clean close; suppresses OnLost
	kindReject    byte = 6 // join refused; body is the reason
	kindAbort     byte = 7 // run aborted; body is the cause (both directions)
)

const (
	// tcpMagic is the hello body; it versions the frame layout.
	tcpMagic = "swift-adlb-tcp-1"
	// MaxFrameBody bounds a frame body so a torn or hostile length prefix
	// is rejected instead of allocated (swiftd's HTTP body limit derives
	// from it: what no frame could carry is refused at the edge).
	MaxFrameBody = 64 << 20
	// maxControlBody bounds non-data frames (welcome blobs, abort
	// messages), which are always small.
	maxControlBody = 1 << 20
	// handshakeTimeout bounds the hello/welcome exchange.
	handshakeTimeout = 10 * time.Second
)

// Default heartbeat parameters, used when HubConfig leaves them zero.
const (
	defaultHeartbeatInterval = 200 * time.Millisecond
	defaultHeartbeatTimeout  = 2 * time.Second
)

// Link roles. The heartbeat fault site fires only on worker links so a
// test arming it in a shared process wedges exactly one side.
const (
	roleHub = iota
	roleWorker
)

// tcpFrame is one decoded frame. For kindData the payload is a buffer
// drawn from the reader's frame pool — ownership rules apply. For control
// kinds the body is a plain heap slice.
type tcpFrame struct {
	kind    byte
	src     int
	dest    int
	tag     int
	payload []byte
	body    []byte
}

// readFrame decodes one frame from r. Data payloads land in a buffer from
// frames; the caller owns it (inject transfers it onward, drops return it).
// Length prefixes beyond MaxFrameBody — including the torn frames
// SiteTCPFrame emits — are rejected before any allocation.
func readFrame(r io.Reader, frames *framePool) (tcpFrame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return tcpFrame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrameBody {
		return tcpFrame{}, fmt.Errorf("mpi: tcp frame body length %d out of range [1,%d]", n, MaxFrameBody)
	}
	kind := hdr[4]
	body := int(n) - 1
	if kind == kindData {
		if body < 12 {
			return tcpFrame{}, fmt.Errorf("mpi: tcp data frame body %d shorter than its header", body)
		}
		var dh [12]byte
		if _, err := io.ReadFull(r, dh[:]); err != nil {
			return tcpFrame{}, err
		}
		payload := frames.get(body - 12)
		if _, err := io.ReadFull(r, payload); err != nil {
			frames.put(payload)
			return tcpFrame{}, err
		}
		return tcpFrame{
			kind:    kindData,
			src:     int(binary.BigEndian.Uint32(dh[0:4])),
			dest:    int(binary.BigEndian.Uint32(dh[4:8])),
			tag:     int(binary.BigEndian.Uint32(dh[8:12])),
			payload: payload,
		}, nil
	}
	if body > maxControlBody {
		return tcpFrame{}, fmt.Errorf("mpi: tcp control frame body %d exceeds %d", body, maxControlBody)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return tcpFrame{}, err
	}
	return tcpFrame{kind: kind, body: buf}, nil
}

// tcpLink is one end of a connection. Writes are synchronous and
// serialized under wmu: one writev per frame, of the link's header
// bytes and the payload as it lies, so a data frame's payload is written
// from the frame the sender handed over, with no copy.
type tcpLink struct {
	conn      net.Conn
	role      int
	done      chan struct{}
	closeOnce sync.Once
	closed    bool // under wmu

	wmu  sync.Mutex
	hdr  [5 + 4*4]byte // length, kind and up to four u32 header words (a welcome's)
	vec  [2][]byte     // the header and the payload, written by writev
	bufs net.Buffers   // over vec; a field, so a write allocates nothing
}

func newLink(conn net.Conn, role int) *tcpLink {
	return &tcpLink{conn: conn, role: role, done: make(chan struct{})}
}

func (l *tcpLink) close() {
	l.closeOnce.Do(func() {
		l.wmu.Lock()
		l.closed = true
		l.wmu.Unlock()
		close(l.done)
		l.conn.Close()
	})
}

// sendFrame writes one frame. Sends on a closed link are swallowed: by
// then the peer is gone and the fault-tolerance layer has written it off.
// payload is only read, and not retained once sendFrame returns.
func (l *tcpLink) sendFrame(kind byte, hdr []uint32, payload []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.closed {
		return nil
	}
	if err := faultinject.At(faultinject.SiteTCPFrame); err != nil {
		// Emit a torn frame: a hostile length prefix with no body. The
		// peer's bounded readFrame rejects it and treats the link as dead,
		// which is exactly what a half-written frame from a dying process
		// looks like.
		var torn [4]byte
		binary.BigEndian.PutUint32(torn[:], uint32(MaxFrameBody+1))
		l.conn.Write(torn[:])
		return nil
	}
	n := 1 + 4*len(hdr) + len(payload)
	if n > MaxFrameBody {
		return fmt.Errorf("mpi: tcp frame body %d exceeds %d", n, MaxFrameBody)
	}
	b := l.hdr[:5+4*len(hdr)]
	binary.BigEndian.PutUint32(b[0:4], uint32(n))
	b[4] = kind
	for i, h := range hdr {
		binary.BigEndian.PutUint32(b[5+4*i:], h)
	}
	l.vec = [2][]byte{b, payload}
	l.bufs = l.vec[:]
	_, err := l.bufs.WriteTo(l.conn)
	l.vec = [2][]byte{} // retain no payload
	if err != nil {
		return fmt.Errorf("mpi: tcp send: %w", err)
	}
	return nil
}

// sendData frames a point-to-point payload. Called from Comm.SendFrame
// on routed destinations; the payload is written before sendData
// returns, so the caller may then reuse or release its frame.
func (l *tcpLink) sendData(src, dest, tag int, data []byte) error {
	return l.sendFrame(kindData, []uint32{uint32(src), uint32(dest), uint32(tag)}, data)
}

// heartbeatLoop sends kindHeartbeat every interval until the link closes.
// On worker links each beat passes the SiteTCPHeartbeat fault gate first;
// an injected error suppresses the beat, producing a wedged-but-connected
// peer the remote deadline must catch.
func (l *tcpLink) heartbeatLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			if l.role == roleWorker {
				if err := faultinject.At(faultinject.SiteTCPHeartbeat); err != nil {
					continue
				}
			}
			if err := l.sendFrame(kindHeartbeat, nil, nil); err != nil {
				return
			}
		}
	}
}

// HubConfig configures ListenTCP.
type HubConfig struct {
	// Addr is the listen address; empty selects 127.0.0.1:0.
	Addr string
	// FirstRank is the first world rank assignable to a joining worker.
	FirstRank int
	// Slots is how many workers may ever join. Rank assignment is
	// monotonic — FirstRank, FirstRank+1, … — and ranks are never reused,
	// so a crashed worker's replacement gets a fresh identity and the
	// server-side lease bookkeeping of the dead rank stays unambiguous.
	Slots int
	// Welcome is an opaque blob delivered to each worker in its welcome
	// frame (the elastic runtime ships the compiled program in it).
	Welcome []byte
	// HeartbeatInterval and HeartbeatTimeout tune crash detection; the
	// hub is the single source of truth and ships them to workers.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// OnLost runs when a live worker vanishes uncleanly (EOF, read error,
	// heartbeat timeout, torn frame). The elastic runtime synthesizes an
	// ADLB Leave from it so the rank's leases requeue.
	OnLost func(rank int)
}

// Hub accepts worker joins for a World whose engine and server ranks run
// locally. Obtain one with World.ListenTCP.
type Hub struct {
	world *World
	cfg   HubConfig

	ln net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	joined int
	live   map[int]*tcpLink
	closed bool
}

// ListenTCP starts accepting TCP worker joins. Ranks
// [cfg.FirstRank, cfg.FirstRank+cfg.Slots) are reserved for joining
// workers and must not be run locally.
func (w *World) ListenTCP(cfg HubConfig) (*Hub, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = defaultHeartbeatInterval
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("mpi: ListenTCP needs at least one worker slot, got %d", cfg.Slots)
	}
	if cfg.FirstRank < 0 || cfg.FirstRank+cfg.Slots > w.size {
		return nil, fmt.Errorf("mpi: worker ranks [%d,%d) out of world range [0,%d)",
			cfg.FirstRank, cfg.FirstRank+cfg.Slots, w.size)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: ListenTCP: %w", err)
	}
	h := &Hub{world: w, cfg: cfg, ln: ln, live: make(map[int]*tcpLink)}
	w.onAbort(func(cause error) { h.broadcastAbort(cause) })
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listen address, for workers to dial.
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// Workers returns the number of currently connected workers.
func (h *Hub) Workers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.live)
}

// Joined returns how many workers have ever been assigned a rank.
func (h *Hub) Joined() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.joined
}

// Close stops accepting joins, says goodbye to connected workers, and
// waits for their connection handlers to drain.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	links := make([]*tcpLink, 0, len(h.live))
	for _, l := range h.live {
		links = append(links, l)
	}
	h.mu.Unlock()
	h.ln.Close()
	for _, l := range links {
		l.sendFrame(kindGoodbye, nil, nil)
		l.close()
	}
	h.wg.Wait()
	return nil
}

func (h *Hub) broadcastAbort(cause error) {
	h.mu.Lock()
	links := make([]*tcpLink, 0, len(h.live))
	for _, l := range h.live {
		links = append(links, l)
	}
	h.mu.Unlock()
	for _, l := range links {
		l.sendFrame(kindAbort, nil, []byte(cause.Error()))
	}
}

func (h *Hub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.serveConn(conn)
		}()
	}
}

// serveConn runs the handshake and then the per-worker read loop.
func (h *Hub) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	f, err := readFrame(br, &h.world.frames)
	if err != nil || f.kind != kindHello || string(f.body) != tcpMagic {
		if err == nil && f.kind == kindData {
			h.world.frames.put(f.payload)
		}
		conn.Close()
		return
	}
	h.mu.Lock()
	if h.closed || h.joined >= h.cfg.Slots {
		h.mu.Unlock()
		l := newLink(conn, roleHub)
		l.sendFrame(kindReject, nil, []byte("no worker slots available"))
		l.close()
		return
	}
	rank := h.cfg.FirstRank + h.joined
	h.joined++
	l := newLink(conn, roleHub)
	h.live[rank] = l
	h.mu.Unlock()

	h.world.setRoute(rank, &route{link: l})
	welcome := []uint32{
		uint32(rank),
		uint32(h.world.size),
		uint32(h.cfg.HeartbeatInterval / time.Millisecond),
		uint32(h.cfg.HeartbeatTimeout / time.Millisecond),
	}
	if err := l.sendFrame(kindWelcome, welcome, h.cfg.Welcome); err != nil {
		h.dropWorker(rank, l, false, err)
		return
	}
	go l.heartbeatLoop(h.cfg.HeartbeatInterval)
	h.readLoop(rank, l, br)
}

// readLoop receives frames from one worker until it leaves, dies, or the
// hub closes. Every received frame passes the SiteTCPConnDrop fault gate:
// an injected error makes the hub treat the connection as dropped mid-run.
func (h *Hub) readLoop(rank int, l *tcpLink, br *bufio.Reader) {
	clean := false
	var cause error
loop:
	for {
		l.conn.SetReadDeadline(time.Now().Add(h.cfg.HeartbeatTimeout))
		f, err := readFrame(br, &h.world.frames)
		if err == nil {
			if ierr := faultinject.At(faultinject.SiteTCPConnDrop); ierr != nil {
				if f.kind == kindData {
					h.world.frames.put(f.payload)
				}
				err = ierr
			}
		}
		if err != nil {
			cause = err
			break
		}
		switch f.kind {
		case kindData:
			h.deliver(f)
		case kindHeartbeat:
			// Liveness only; the next SetReadDeadline re-arms the watch.
		case kindGoodbye:
			clean = true
			break loop
		case kindAbort:
			h.world.Abort(fmt.Errorf("mpi: remote rank %d aborted: %s", rank, f.body))
			clean = true
			break loop
		default:
			cause = fmt.Errorf("mpi: unexpected frame kind %d from rank %d", f.kind, rank)
			break loop
		}
	}
	h.dropWorker(rank, l, clean, cause)
}

// deliver routes a worker's data frame: to a local mailbox when the
// destination runs in this process, or relayed down the destination's own
// link when it is another worker. Ownership of f.payload (a pool buffer)
// transfers to inject; on the relay path sendData writes it out, so it
// returns to the pool here.
func (h *Hub) deliver(f tcpFrame) {
	if r := h.world.routeFor(f.dest); r != nil {
		if !r.dead.Load() {
			r.link.sendData(f.src, f.dest, f.tag, f.payload)
		}
		h.world.frames.put(f.payload)
		return
	}
	h.world.inject(f.src, f.dest, f.tag, f.payload)
}

// dropWorker retires a worker connection. Unclean departures tombstone the
// rank's route (later sends to it are swallowed) and fire OnLost so the
// caller can reclaim its leases; clean goodbyes and hub shutdown do
// neither beyond the tombstone.
func (h *Hub) dropWorker(rank int, l *tcpLink, clean bool, cause error) {
	l.close()
	if r := h.world.routeFor(rank); r != nil {
		r.dead.Store(true)
	}
	h.mu.Lock()
	_, wasLive := h.live[rank]
	delete(h.live, rank)
	hubClosed := h.closed
	h.mu.Unlock()
	_ = cause
	if wasLive && !clean && !hubClosed && h.cfg.OnLost != nil {
		h.cfg.OnLost(rank)
	}
}

// WorkerConn is a worker process's membership in a remote World. The
// worker runs exactly one rank locally; every other rank is reached
// through the hub.
type WorkerConn struct {
	world   *World
	link    *tcpLink
	rank    int
	welcome []byte
}

// JoinTCP dials a hub, performs the hello/welcome handshake, and builds
// the local World: same size as the hub's, with this process's assigned
// rank local and all other ranks routed over the uplink.
func JoinTCP(addr string) (*WorkerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, handshakeTimeout)
	if err != nil {
		return nil, fmt.Errorf("mpi: JoinTCP %s: %w", addr, err)
	}
	l := newLink(conn, roleWorker)
	if err := l.sendFrame(kindHello, nil, []byte(tcpMagic)); err != nil {
		l.close()
		return nil, err
	}
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var scratch framePool // handshake frames are control-only; no data payloads land here
	f, err := readFrame(br, &scratch)
	if err != nil {
		l.close()
		return nil, fmt.Errorf("mpi: JoinTCP %s: handshake: %w", addr, err)
	}
	if f.kind == kindReject {
		l.close()
		return nil, fmt.Errorf("mpi: join rejected by %s: %s", addr, f.body)
	}
	if f.kind != kindWelcome || len(f.body) < 16 {
		l.close()
		return nil, fmt.Errorf("mpi: JoinTCP %s: malformed welcome", addr)
	}
	rank := int(binary.BigEndian.Uint32(f.body[0:4]))
	size := int(binary.BigEndian.Uint32(f.body[4:8]))
	hbInterval := time.Duration(binary.BigEndian.Uint32(f.body[8:12])) * time.Millisecond
	hbTimeout := time.Duration(binary.BigEndian.Uint32(f.body[12:16])) * time.Millisecond
	if hbInterval <= 0 {
		hbInterval = defaultHeartbeatInterval
	}
	if hbTimeout <= 0 {
		hbTimeout = defaultHeartbeatTimeout
	}
	w, err := NewWorld(size)
	if err != nil || rank < 0 || rank >= size {
		l.close()
		return nil, fmt.Errorf("mpi: JoinTCP %s: welcome assigned rank %d of world %d", addr, rank, size)
	}
	uplink := &route{link: l}
	for i := 0; i < size; i++ {
		if i != rank {
			w.setRoute(i, uplink)
		}
	}
	welcome := append([]byte(nil), f.body[16:]...)
	wc := &WorkerConn{world: w, link: l, rank: rank, welcome: welcome}
	// A locally-detected failure (watchdog, panic aggregation) must reach
	// the hub: forward the abort upstream. If the abort originated at the
	// hub this echoes one redundant, idempotent frame back.
	w.onAbort(func(cause error) {
		l.sendFrame(kindAbort, nil, []byte(cause.Error()))
	})
	go l.heartbeatLoop(hbInterval)
	go wc.readLoop(br, hbTimeout)
	return wc, nil
}

// World returns the worker-local view of the shared world.
func (wc *WorkerConn) World() *World { return wc.world }

// Rank returns the rank the hub assigned to this process.
func (wc *WorkerConn) Rank() int { return wc.rank }

// Welcome returns the opaque blob the hub shipped in the welcome frame.
func (wc *WorkerConn) Welcome() []byte { return wc.welcome }

// Close leaves cleanly: the hub sees a goodbye, not a crash, so no Leave
// is synthesized and OnLost does not fire.
func (wc *WorkerConn) Close() error {
	err := wc.link.sendFrame(kindGoodbye, nil, nil)
	wc.link.close()
	return err
}

// CloseWithError reports a worker-side failure to the hub (which aborts
// the run) and closes the connection.
func (wc *WorkerConn) CloseWithError(cause error) {
	if cause == nil {
		wc.Close()
		return
	}
	wc.link.sendFrame(kindAbort, nil, []byte(cause.Error()))
	wc.link.close()
}

func (wc *WorkerConn) readLoop(br *bufio.Reader, hbTimeout time.Duration) {
	for {
		wc.link.conn.SetReadDeadline(time.Now().Add(hbTimeout))
		f, err := readFrame(br, &wc.world.frames)
		if err != nil {
			select {
			case <-wc.link.done:
				// We closed the link ourselves; not a hub failure.
			default:
				wc.world.Abort(fmt.Errorf("mpi: rank %d lost connection to hub: %w", wc.rank, err))
				wc.link.close()
			}
			return
		}
		switch f.kind {
		case kindData:
			wc.world.inject(f.src, f.dest, f.tag, f.payload)
		case kindHeartbeat:
		case kindGoodbye:
			wc.link.close()
			wc.world.Abort(ErrHubClosed) // what is already queued still arrives
			return
		case kindAbort:
			wc.world.Abort(fmt.Errorf("mpi: hub aborted run: %s", f.body))
			wc.link.close()
			return
		default:
			wc.world.Abort(fmt.Errorf("mpi: unexpected frame kind %d from hub", f.kind))
			wc.link.close()
			return
		}
	}
}
