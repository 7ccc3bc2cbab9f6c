package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"negfsim/internal/obs"
)

// TCP connects one local rank to its peers over real sockets: one duplex
// connection per rank pair, established lazily by the lower rank on first
// use of the link, with a handshake carrying rank identities so the accept
// side can route the connection. Messages are length-prefixed binary frames
// of complex128 elements; a per-link writer goroutine coalesces bursts of
// small messages into one flush, and a per-link reader demultiplexes frames
// into the link's delivery channel. Any unrecoverable link error — dial
// budget exhausted, handshake mismatch, reset, EOF — closes Dead() with the
// peer's rank, which the cluster layer maps to comm.ErrRankDead so a peer
// process dying mid-exchange looks exactly like an injected rank death.
//
// Telemetry (see docs/OBSERVABILITY.md): per-link counters
// transport.tcp.sent_bytes{link="i->j"}, transport.tcp.recvd_bytes and
// transport.tcp.frames{dir}, plus transport.tcp.dials,
// transport.tcp.reconnects (dial retries while a peer is not yet up) and
// transport.tcp.accepts. Byte counters record payload bytes (16 per
// element), matching the cluster's accounting; framing overhead is excluded.
type TCP struct {
	ctx   context.Context
	rank  int
	peers []string
	ln    net.Listener
	cfg   TCPConfig

	self  chan []complex128
	links []*tcpLink

	closeCh   chan struct{}
	closeOnce sync.Once
	closed    atomic.Bool
	wg        sync.WaitGroup
	writerWg  sync.WaitGroup // write loops only: Close waits for their drain first

	dead     chan struct{}
	deadOnce sync.Once
	deadMu   sync.Mutex
	deadRank int
	deadErr  error
}

// TCPConfig carries the optional knobs of a TCP transport. The zero value
// selects the documented defaults.
type TCPConfig struct {
	// Listener, when non-nil, is used instead of listening on peers[rank] —
	// tests inject pre-bound ephemeral-port listeners this way.
	Listener net.Listener

	// DialTimeout bounds how long the dialing side keeps retrying a peer
	// that is not accepting yet (default 10s). Retries beyond the first
	// attempt count as reconnects in the transport metrics.
	DialTimeout time.Duration

	// RetryInterval is the pause between dial attempts (default 50ms).
	RetryInterval time.Duration
}

// tcpLink is the state of one rank pair: the outbound queue the local rank
// posts on, the inbound queue frames are delivered to, and the connection
// machinery shared by the dialer and acceptor paths.
type tcpLink struct {
	peer     int
	out      chan []complex128
	in       chan []complex128
	started  atomic.Bool
	acceptCh chan net.Conn // handed over by the accept loop (cap 1)
	connMu   sync.Mutex
	conn     net.Conn

	sentBytes, recvdBytes *obs.Counter
	sentFrames            *obs.Counter
	recvFrames            *obs.Counter
	reconnects            *obs.Counter
}

// Transport-wide TCP telemetry.
var (
	obsTCPDials   = obs.GetCounter("transport.tcp.dials")
	obsTCPAccepts = obs.GetCounter("transport.tcp.accepts")
	obsTCPDeaths  = obs.GetCounter("transport.tcp.link_deaths")
)

// Wire protocol constants: the handshake magic/version exchanged once per
// connection, and the sanity bound on a single frame's element count.
const (
	handshakeMagic   = "NGFT"
	handshakeVersion = 1
	ackMagic         = "NGFA"
	maxFrameElems    = 1 << 28 // 4 GiB of payload; larger frames are protocol errors
	frameChunk       = 512     // elements per encode/decode buffer
)

// NewTCPWith builds the transport for the local rank over the given peer
// addresses (index = rank) and starts listening on peers[rank] (or on
// cfg.Listener). Connections to other peers are dialed lazily on first use
// of each link.
func NewTCPWith(ctx context.Context, rank int, peers []string, cfg TCPConfig) (*TCP, error) {
	if rank < 0 || rank >= len(peers) {
		return nil, fmt.Errorf("transport: rank %d outside peer list of %d", rank, len(peers))
	}
	if len(peers) < 2 {
		return nil, fmt.Errorf("transport: a TCP cluster needs at least 2 peers, got %d", len(peers))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 50 * time.Millisecond
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", peers[rank])
		if err != nil {
			return nil, fmt.Errorf("transport: rank %d listening on %s: %w", rank, peers[rank], err)
		}
	}
	t := &TCP{
		ctx: ctx, rank: rank, peers: peers, ln: ln, cfg: cfg,
		self:    make(chan []complex128, LinkDepth),
		links:   make([]*tcpLink, len(peers)),
		closeCh: make(chan struct{}),
		dead:    make(chan struct{}),
	}
	t.deadRank = -1
	for j := range peers {
		if j == rank {
			continue
		}
		link := fmt.Sprintf("%d->%d", rank, j)
		back := fmt.Sprintf("%d->%d", j, rank)
		t.links[j] = &tcpLink{
			peer:       j,
			out:        make(chan []complex128, LinkDepth),
			in:         make(chan []complex128, LinkDepth),
			acceptCh:   make(chan net.Conn, 1),
			sentBytes:  obs.GetCounter(obs.Labeled("transport.tcp.sent_bytes", "link", link)),
			recvdBytes: obs.GetCounter(obs.Labeled("transport.tcp.recvd_bytes", "link", back)),
			sentFrames: obs.GetCounter(obs.Labeled("transport.tcp.frames", "link", link)),
			recvFrames: obs.GetCounter(obs.Labeled("transport.tcp.frames", "link", back)),
			reconnects: obs.GetCounter(obs.Labeled("transport.tcp.reconnects", "link", link)),
		}
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Size returns the number of ranks (the peer list length).
func (t *TCP) Size() int { return len(t.peers) }

// Local reports whether r is the one rank this process hosts.
func (t *TCP) Local(r int) bool { return r == t.rank }

// Rank returns the local rank id.
func (t *TCP) Rank() int { return t.rank }

// SendCh returns the outbound queue of the from→to link. from must be the
// local rank; self-sends use an in-memory loopback channel and never touch
// the network.
func (t *TCP) SendCh(from, to int) chan<- []complex128 {
	if from != t.rank {
		panic(fmt.Sprintf("transport: rank %d cannot send as rank %d", t.rank, from))
	}
	if to == t.rank {
		return t.self
	}
	t.ensure(to)
	return t.links[to].out
}

// RecvCh returns the delivery queue of the from→to link. to must be the
// local rank. Asking for the channel arms the link, so a receive-only link
// still gets its connection established.
func (t *TCP) RecvCh(to, from int) <-chan []complex128 {
	if to != t.rank {
		panic(fmt.Sprintf("transport: rank %d cannot receive as rank %d", t.rank, to))
	}
	if from == t.rank {
		return t.self
	}
	t.ensure(from)
	return t.links[from].in
}

// Dead returns the failure channel, closed on the first unrecoverable link
// error.
func (t *TCP) Dead() <-chan struct{} { return t.dead }

// DeadRank returns the peer whose link failed first, or -1.
func (t *TCP) DeadRank() int {
	t.deadMu.Lock()
	defer t.deadMu.Unlock()
	return t.deadRank
}

// DeadErr returns the cause of the first link failure, or nil.
func (t *TCP) DeadErr() error {
	t.deadMu.Lock()
	defer t.deadMu.Unlock()
	return t.deadErr
}

// Close tears the transport down gracefully: queued outbound frames are
// flushed (bounded by a short write deadline, so a dead peer cannot hang
// the teardown), then the listener stops accepting, every established
// connection closes (surfacing as peer death to remotes still mid-
// exchange), and all link goroutines exit. The flush matters when ranks
// finish asynchronously — a peer completing its run must not strand the
// last exchange's frames in its buffers when it exits. Close blocks until
// the goroutines are gone.
func (t *TCP) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		for _, l := range t.links {
			if l == nil {
				continue
			}
			l.connMu.Lock()
			if l.conn != nil {
				l.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
			}
			l.connMu.Unlock()
		}
		close(t.closeCh)
		t.writerWg.Wait() // writers drain their queues and flush before conns drop
		t.ln.Close()
		for _, l := range t.links {
			if l == nil {
				continue
			}
			l.connMu.Lock()
			if l.conn != nil {
				l.conn.Close()
			}
			l.connMu.Unlock()
			// A conn parked in the accept handoff never got a reader; close
			// it too so the dialing peer does not hang on a half-open link.
			select {
			case c := <-l.acceptCh:
				c.Close()
			default:
			}
		}
	})
	t.wg.Wait()
	return nil
}

// fail records the first unrecoverable error of a link and closes Dead().
// Failures observed during shutdown or after cancellation are not deaths —
// they are the teardown's own noise.
func (t *TCP) fail(peer int, err error) {
	if t.closed.Load() || t.ctx.Err() != nil {
		return
	}
	t.deadOnce.Do(func() {
		t.deadMu.Lock()
		t.deadRank = peer
		t.deadErr = err
		t.deadMu.Unlock()
		obsTCPDeaths.Inc()
		close(t.dead)
	})
}

// ensure arms the link to peer j: the first caller spawns the link runner,
// which establishes the connection (dialing or waiting for the accept
// handoff) and then pumps frames both ways until teardown.
func (t *TCP) ensure(j int) {
	l := t.links[j]
	if l.started.CompareAndSwap(false, true) {
		t.wg.Add(1)
		go t.runLink(l)
	}
}

// acceptLoop routes incoming connections: it reads the handshake, validates
// the claimed identity against the peer list, acks, and hands the connection
// to the claiming rank's link.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed (Close or process exit)
		}
		obsTCPAccepts.Inc()
		t.wg.Add(1)
		go t.handleAccept(conn)
	}
}

// handleAccept validates one inbound connection's handshake and parks it for
// the link runner. Invalid or duplicate connections are dropped.
func (t *TCP) handleAccept(conn net.Conn) {
	defer t.wg.Done()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	from, err := readHandshake(conn, t.rank, len(t.peers))
	if err != nil || from == t.rank || from > t.rank {
		// Protocol violation (only lower ranks dial) — drop the connection;
		// the dialer will observe the close and report its own link dead.
		conn.Close()
		return
	}
	if _, err := conn.Write([]byte(ackMagic)); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	select {
	case t.links[from].acceptCh <- conn:
		t.ensure(from) // arm the reader even if the local rank never initiates
		if t.closed.Load() {
			// Close may have drained the handoff before we parked: a
			// connection accepted concurrently with teardown must not
			// survive it, or the dialing peer keeps a healthy link to a
			// transport that no longer exists. If the link runner already
			// took the conn, its own closed check disposes of it.
			select {
			case c := <-t.links[from].acceptCh:
				c.Close()
			default:
			}
		}
	default:
		conn.Close() // duplicate connection for the pair
	}
}

// runLink establishes the link's connection and runs its reader and writer
// until teardown or failure.
func (t *TCP) runLink(l *tcpLink) {
	defer t.wg.Done()
	conn, err := t.connect(l)
	if err != nil {
		t.fail(l.peer, err)
		return
	}
	l.connMu.Lock()
	if t.closed.Load() {
		l.connMu.Unlock()
		conn.Close()
		return
	}
	l.conn = conn
	l.connMu.Unlock()
	t.wg.Add(1)
	t.writerWg.Add(1)
	go t.writeLoop(l, conn)
	t.readLoop(l, conn)
}

// connect returns the link's connection: the lower rank dials (with retries
// while the peer is still coming up), the higher rank waits for the accept
// loop's handoff.
func (t *TCP) connect(l *tcpLink) (net.Conn, error) {
	if t.rank < l.peer {
		return t.dial(l)
	}
	select {
	case conn := <-l.acceptCh:
		return conn, nil
	case <-t.closeCh:
		// Both arms can be ready at once when teardown races an accept;
		// if select picked this one, dispose of the parked conn so the
		// dialing peer observes the close instead of a half-open link.
		select {
		case conn := <-l.acceptCh:
			conn.Close()
		default:
		}
		return nil, fmt.Errorf("transport: closed while awaiting rank %d", l.peer)
	case <-t.ctx.Done():
		return nil, t.ctx.Err()
	}
}

// dial establishes the outbound connection to l.peer, retrying while the
// peer's listener is not up yet; retries beyond the first attempt count on
// the link's reconnect metric. One stoppable timer is reused across the
// retries (an allocation per attempt adds up on a slow peer), the deadline
// is checked before sleeping, and the last sleep is capped at the time
// remaining, so the loop never overshoots DialTimeout by a retry interval.
func (t *TCP) dial(l *tcpLink) (net.Conn, error) {
	deadline := time.Now().Add(t.cfg.DialTimeout)
	d := net.Dialer{Timeout: t.cfg.RetryInterval * 10}
	retry := time.NewTimer(t.cfg.RetryInterval)
	if !retry.Stop() {
		<-retry.C
	}
	defer retry.Stop()
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			l.reconnects.Inc()
			if remaining := time.Until(deadline); remaining > 0 {
				pause := t.cfg.RetryInterval
				if pause > remaining {
					pause = remaining
				}
				retry.Reset(pause)
				select {
				case <-retry.C:
				case <-t.closeCh:
					return nil, fmt.Errorf("transport: closed while dialing rank %d", l.peer)
				case <-t.ctx.Done():
					return nil, t.ctx.Err()
				}
			}
			if !time.Now().Before(deadline) {
				return nil, fmt.Errorf("transport: dialing rank %d at %s: no answer after %v: %w",
					l.peer, t.peers[l.peer], t.cfg.DialTimeout, lastErr)
			}
		}
		obsTCPDials.Inc()
		conn, err := d.DialContext(t.ctx, "tcp", t.peers[l.peer])
		if err != nil {
			lastErr = err
			continue
		}
		if err := shakeHands(conn, t.rank, l.peer, len(t.peers)); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		return conn, nil
	}
}

// writeLoop drains the link's outbound queue onto the connection, framing
// each message and coalescing bursts: the buffered writer is only flushed
// once the queue is momentarily empty, so a phase posting many tile slices
// back-to-back pays one syscall per burst, not per message.
func (t *TCP) writeLoop(l *tcpLink, conn net.Conn) {
	defer t.wg.Done()
	defer t.writerWg.Done()
	bw := bufio.NewWriterSize(conn, 256<<10)
	var scratch [16 * frameChunk]byte
	for {
		var msg []complex128
		select {
		case msg = <-l.out:
		case <-t.closeCh:
			t.drainOnClose(l, bw, scratch[:])
			return
		case <-t.dead:
			return
		case <-t.ctx.Done():
			return
		}
		for {
			if err := writeFrame(bw, msg, scratch[:]); err != nil {
				t.fail(l.peer, fmt.Errorf("transport: writing to rank %d: %w", l.peer, err))
				return
			}
			l.sentFrames.Inc()
			l.sentBytes.Add(int64(16 * len(msg)))
			select {
			case msg = <-l.out:
				continue // coalesce: keep framing while the queue has more
			default:
			}
			break
		}
		if err := bw.Flush(); err != nil {
			t.fail(l.peer, fmt.Errorf("transport: flushing to rank %d: %w", l.peer, err))
			return
		}
	}
}

// drainOnClose writes whatever is still queued on the link and flushes, so
// a graceful teardown delivers every posted message. Errors are swallowed:
// the transport is closing and fail() would suppress them anyway, and the
// write deadline Close armed bounds how long a dead peer can stall this.
func (t *TCP) drainOnClose(l *tcpLink, bw *bufio.Writer, scratch []byte) {
	for {
		select {
		case msg := <-l.out:
			if err := writeFrame(bw, msg, scratch); err != nil {
				return
			}
			l.sentFrames.Inc()
			l.sentBytes.Add(int64(16 * len(msg)))
		default:
			bw.Flush()
			return
		}
	}
}

// readLoop parses frames off the connection and delivers them to the link's
// inbound queue in arrival order. A full queue exerts backpressure through
// the socket: the loop simply stops reading until the receiver drains.
func (t *TCP) readLoop(l *tcpLink, conn net.Conn) {
	br := bufio.NewReaderSize(conn, 256<<10)
	for {
		msg, err := readFrame(br)
		if err != nil {
			t.fail(l.peer, fmt.Errorf("transport: reading from rank %d: %w", l.peer, err))
			return
		}
		l.recvFrames.Inc()
		l.recvdBytes.Add(int64(16 * len(msg)))
		select {
		case l.in <- msg:
		case <-t.closeCh:
			return
		case <-t.ctx.Done():
			return
		}
	}
}

// shakeHands runs the dialer's half of the handshake: identify, then wait
// for the acceptor's ack so protocol mismatches surface before any frame.
func shakeHands(conn net.Conn, from, to, size int) error {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	defer conn.SetDeadline(time.Time{})
	var hs [20]byte
	copy(hs[:4], handshakeMagic)
	binary.LittleEndian.PutUint32(hs[4:], handshakeVersion)
	binary.LittleEndian.PutUint32(hs[8:], uint32(from))
	binary.LittleEndian.PutUint32(hs[12:], uint32(to))
	binary.LittleEndian.PutUint32(hs[16:], uint32(size))
	if _, err := conn.Write(hs[:]); err != nil {
		return fmt.Errorf("handshake write: %w", err)
	}
	var ack [4]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("handshake ack: %w", err)
	}
	if string(ack[:]) != ackMagic {
		return fmt.Errorf("handshake ack %q, want %q", ack[:], ackMagic)
	}
	return nil
}

// readHandshake runs the acceptor's half: parse and validate the dialer's
// identity against the local rank and cluster size, returning the claimed
// rank.
func readHandshake(conn io.Reader, localRank, size int) (from int, err error) {
	var hs [20]byte
	if _, err := io.ReadFull(conn, hs[:]); err != nil {
		return -1, fmt.Errorf("handshake read: %w", err)
	}
	if string(hs[:4]) != handshakeMagic {
		return -1, fmt.Errorf("handshake magic %q, want %q", hs[:4], handshakeMagic)
	}
	if v := binary.LittleEndian.Uint32(hs[4:]); v != handshakeVersion {
		return -1, fmt.Errorf("handshake version %d, want %d", v, handshakeVersion)
	}
	from = int(binary.LittleEndian.Uint32(hs[8:]))
	to := int(binary.LittleEndian.Uint32(hs[12:]))
	n := int(binary.LittleEndian.Uint32(hs[16:]))
	if to != localRank {
		return -1, fmt.Errorf("handshake addressed to rank %d, this is rank %d", to, localRank)
	}
	if n != size {
		return -1, fmt.Errorf("handshake cluster size %d, this cluster has %d", n, size)
	}
	if from < 0 || from >= size {
		return -1, fmt.Errorf("handshake from invalid rank %d", from)
	}
	return from, nil
}

// writeFrame frames one message: a 4-byte little-endian element count
// followed by 16 bytes per element (real bits, then imaginary bits).
// scratch is a reusable encode buffer whose length must be a multiple of 16.
func writeFrame(w io.Writer, msg []complex128, scratch []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	per := len(scratch) / 16
	for off := 0; off < len(msg); off += per {
		end := off + per
		if end > len(msg) {
			end = len(msg)
		}
		buf := scratch[:16*(end-off)]
		for i, c := range msg[off:end] {
			binary.LittleEndian.PutUint64(buf[16*i:], math.Float64bits(real(c)))
			binary.LittleEndian.PutUint64(buf[16*i+8:], math.Float64bits(imag(c)))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// readFrame parses one frame: the element count header, then the payload,
// decoded frameChunk elements at a time. The message grows with the
// payload that actually arrives, doubling up to the announced count, so a
// truncated or lying header costs at most about twice the bytes received,
// not the count it claims.
func readFrame(r io.Reader) ([]complex128, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxFrameElems {
		return nil, fmt.Errorf("frame of %d elements exceeds the %d limit", n, maxFrameElems)
	}
	msg := make([]complex128, 0, min(n, frameChunk))
	var buf [16 * frameChunk]byte
	for len(msg) < n {
		chunk := min(n-len(msg), frameChunk)
		b := buf[:16*chunk]
		if _, err := io.ReadFull(r, b); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("frame of %d elements ends after %d: %w", n, len(msg), err)
		}
		if len(msg)+chunk > cap(msg) {
			grown := make([]complex128, len(msg), min(n, 2*cap(msg)))
			copy(grown, msg)
			msg = grown
		}
		for i := 0; i < chunk; i++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
			msg = append(msg, complex(re, im))
		}
	}
	return msg, nil
}
