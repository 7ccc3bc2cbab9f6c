package comm

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"negfsim/internal/obs"
	"negfsim/internal/transport"
)

// Exchange telemetry. The per-transfer byte accounting lives in the
// cluster's own atomics (always on — tests compare it against the §4.1
// closed-form models); the observability layer mirrors it as gauge funcs
// registered per cluster (see NewCluster) plus the global counters and the
// collective-latency timer below.
var (
	obsSends      = obs.GetCounter("comm.sends")
	obsSentBytes  = obs.GetCounter("comm.sent_bytes_total")
	obsRecvdBytes = obs.GetCounter("comm.recvd_bytes_total")
	obsAlltoallv  = obs.GetTimer("comm.alltoallv")
)

// DefaultTimeout is the per-operation deadline of a fresh cluster: the
// backstop that turns protocol mismatches and silent failures into errors
// instead of hangs. Override with Cluster.SetTimeout.
const DefaultTimeout = 10 * time.Second

// Cluster is an MPI-communicator stand-in: ranks exchanging ordered
// []complex128 messages with byte accounting on every transfer, running the
// simulator's real exchange patterns at reduced scale so the measured
// traffic can be checked against the closed-form models.
//
// The message plumbing is pluggable (internal/transport): the default
// in-process transport hosts every rank as a goroutine of this process over
// channel mailboxes, while NewClusterTCPWith hosts ONE rank per OS process
// and carries the links over real sockets. All policy — deadlines, fault
// injection, cancellation, accounting — lives here, identically for both.
//
// Failures are first-class: a fault plan (InjectFaults) can kill a rank or
// tamper with messages, and the death of any rank — injected, returned as
// an error, panicked, or (over TCP) a peer process dying — closes a
// per-cluster cancellation channel that unblocks every pending operation
// with ErrRankDead, so survivors detect the failure immediately rather than
// after the full deadline.
type Cluster struct {
	n     int
	ctx   context.Context     // caller cancellation (never nil)
	tr    transport.Transport // the message plumbing (inproc or TCP)
	id    string              // gauge-family identity; "" is the legacy unlabeled family
	local []int               // ranks hosted by this process, ascending
	ranks []*Rank             // the local ranks' handles, reused by every Run
	sent  []atomic.Int64      // bytes sent per rank
	recvd []atomic.Int64      // bytes received per rank (credited at Recv)

	timeout   time.Duration
	quit      chan struct{} // closed by Close; stops the transport watcher
	closeOnce sync.Once

	// Fault state (see fault.go).
	plan      *FaultPlan
	ops       []atomic.Int64 // per-rank operation counter for KillAtOp
	dropsDone atomic.Int64   // drop budget spent
	deadRank  atomic.Int64   // first dead rank id; -1 while healthy
	down      chan struct{}  // closed on first death
}

// gaugeFamily records how many per-rank gauge funcs the most recent cluster
// of one identity registered, and which cluster owns them.
type gaugeFamily struct {
	n     int
	owner *Cluster
}

// rankGauges tracks the registered per-rank gauge families, keyed by cluster
// identity, so a successor cluster of the same identity can unregister the
// tail when a smaller cluster replaces a larger one (otherwise
// comm.sent_bytes{rank="7"} would keep scraping a dead instance forever)
// while clusters of different identities — say the default in-process family
// and a TCP peer's family — never clobber each other's series.
var rankGauges struct {
	sync.Mutex
	families map[string]*gaugeFamily
}

// gaugeName builds the per-rank gauge series name for a cluster identity:
// the legacy comm.sent_bytes{rank="r"} when id is empty, and
// comm.sent_bytes{cluster="id",rank="r"} otherwise.
func gaugeName(id, base string, rank int) string {
	if id == "" {
		return obs.Labeled(base, "rank", strconv.Itoa(rank))
	}
	return obs.Labeled(base, "cluster", id, "rank", strconv.Itoa(rank))
}

// totalGaugeName builds the cluster-total gauge name for an identity.
func totalGaugeName(id string) string {
	if id == "" {
		return "comm.total_bytes"
	}
	return obs.Labeled("comm.total_bytes", "cluster", id)
}

// registerGauges points the cluster's gauge family at c and retires any
// higher-rank series left by a larger predecessor of the same identity.
func registerGauges(c *Cluster) {
	obs.RegisterGaugeFunc(totalGaugeName(c.id), c.TotalBytes)
	rankGauges.Lock()
	defer rankGauges.Unlock()
	if rankGauges.families == nil {
		rankGauges.families = make(map[string]*gaugeFamily)
	}
	for r := 0; r < c.n; r++ {
		r := r
		obs.RegisterGaugeFunc(gaugeName(c.id, "comm.sent_bytes", r), func() int64 { return c.SentBytes(r) })
		obs.RegisterGaugeFunc(gaugeName(c.id, "comm.recvd_bytes", r), func() int64 { return c.ReceivedBytes(r) })
	}
	fam := rankGauges.families[c.id]
	if fam == nil {
		fam = &gaugeFamily{}
		rankGauges.families[c.id] = fam
	}
	for r := c.n; r < fam.n; r++ {
		obs.UnregisterGaugeFunc(gaugeName(c.id, "comm.sent_bytes", r))
		obs.UnregisterGaugeFunc(gaugeName(c.id, "comm.recvd_bytes", r))
	}
	fam.n = c.n
	fam.owner = c
}

// NewCluster creates an in-process communicator with n ranks. A Send or Recv
// that waits longer than the deadline (DefaultTimeout; configurable with
// SetTimeout) fails, so protocol mismatches surface as test errors instead
// of hangs.
//
// The cluster's byte counters are exported on the observability registry as
// per-rank gauges — comm.sent_bytes{rank="r"}, comm.recvd_bytes{rank="r"} —
// plus comm.total_bytes. The gauges read the cluster's own atomics at
// scrape time, so they agree with SentBytes/ReceivedBytes/TotalBytes by
// construction; creating a new cluster re-points them at the new instance
// and unregisters any higher-rank gauges left by a larger predecessor.
// Clusters with a non-empty identity (TCP peers) export under their own
// {cluster=...} label and never collide with this default family.
func NewCluster(n int) *Cluster { return NewClusterCtx(context.Background(), n) }

// NewClusterCtx is NewCluster bound to a context: when ctx is cancelled,
// every pending Send/Recv on the cluster unblocks with the context's error
// (wrapped, so errors.Is(err, context.Canceled) holds) instead of waiting
// out the deadline. This is how a cancelled simulation releases all of its
// rank goroutines promptly.
func NewClusterCtx(ctx context.Context, n int) *Cluster {
	if n < 1 {
		panic("comm: cluster needs at least one rank")
	}
	return newCluster(ctx, transport.NewInproc(n), "")
}

// NewClusterTCPWith creates one peer of a multi-process communicator: this
// process hosts exactly rank `rank`, and the other ranks are peer processes
// reachable at peers[i] (host:port, index = rank). cfg configures the
// transport (injected listener, dial timeout); tests bind ephemeral
// loopback listeners up front this way to avoid port races. Links are
// dialed lazily on first use; a peer process dying mid-exchange is detected
// by the transport and surfaces to every pending operation as ErrRankDead,
// exactly like an injected in-process rank death.
//
// The peer's byte gauges export under the cluster identity "tcp-r<rank>"
// (comm.sent_bytes{cluster="tcp-r0",rank="0"}, ...), so two live clusters
// in one process never clobber each other's series. Call Close when done:
// it tears down the sockets and retires the gauges.
func NewClusterTCPWith(ctx context.Context, rank int, peers []string, cfg transport.TCPConfig) (*Cluster, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr, err := transport.NewTCPWith(ctx, rank, peers, cfg)
	if err != nil {
		return nil, err
	}
	return newCluster(ctx, tr, "tcp-r"+strconv.Itoa(rank)), nil
}

// newCluster assembles a cluster on an established transport. When the
// transport has a failure mode (TCP), a watcher goroutine maps its death
// signal onto the cluster's own down channel, so transport-level peer loss
// and simulated rank death are indistinguishable to blocked operations.
func newCluster(ctx context.Context, tr transport.Transport, id string) *Cluster {
	if ctx == nil {
		ctx = context.Background()
	}
	n := tr.Size()
	c := &Cluster{n: n, ctx: ctx, tr: tr, id: id, timeout: DefaultTimeout,
		sent: make([]atomic.Int64, n), recvd: make([]atomic.Int64, n),
		ops: make([]atomic.Int64, n), down: make(chan struct{}), quit: make(chan struct{})}
	c.deadRank.Store(-1)
	c.ranks = make([]*Rank, n)
	for r := 0; r < n; r++ {
		if tr.Local(r) {
			c.local = append(c.local, r)
			c.ranks[r] = &Rank{ID: r, c: c}
		}
	}
	registerGauges(c)
	if dead := tr.Dead(); dead != nil {
		go func() {
			select {
			case <-dead:
				c.markDead(tr.DeadRank())
			case <-c.down: // a local death got there first
			case <-c.quit:
			case <-ctx.Done():
			}
		}()
	}
	return c
}

// Close tears the cluster down: the transport's connections and goroutines
// stop (no-op for the in-process transport) and the cluster's gauge series
// are retired. Safe to call more than once. In-process clusters need no
// Close — their transport holds no resources — but calling it is harmless.
func (c *Cluster) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.quit)
		err = c.tr.Close()
		c.Unregister()
	})
	return err
}

// Unregister retires the cluster's gauge funcs (the total and the per-rank
// comm.sent_bytes/comm.recvd_bytes series of its identity) if this cluster
// is still the instance behind them. Normally a successor cluster of the
// same identity re-points the series and nothing needs retiring; call
// Unregister when a run abandons its cluster with no successor — a
// cancelled distributed job — so scrapes stop reporting a dead instance.
// Safe to call more than once and safe to call on a cluster that was
// already replaced (both are no-ops).
func (c *Cluster) Unregister() {
	rankGauges.Lock()
	defer rankGauges.Unlock()
	fam := rankGauges.families[c.id]
	if fam == nil || fam.owner != c {
		return
	}
	obs.UnregisterGaugeFunc(totalGaugeName(c.id))
	for r := 0; r < fam.n; r++ {
		obs.UnregisterGaugeFunc(gaugeName(c.id, "comm.sent_bytes", r))
		obs.UnregisterGaugeFunc(gaugeName(c.id, "comm.recvd_bytes", r))
	}
	delete(rankGauges.families, c.id)
}

// Size returns the number of ranks.
func (c *Cluster) Size() int { return c.n }

// Local reports whether rank r executes in this process. Every rank of an
// in-process cluster is local; a TCP cluster hosts exactly one.
func (c *Cluster) Local(r int) bool { return c.tr.Local(r) }

// LocalRanks returns the ranks this process hosts, ascending. Run spawns one
// goroutine per local rank.
func (c *Cluster) LocalRanks() []int { return append([]int(nil), c.local...) }

// MultiProcess reports whether some ranks of the cluster live in other OS
// processes (a TCP cluster). Exchange patterns that rely on shared memory
// between ranks must take their message-passing path when this is true.
func (c *Cluster) MultiProcess() bool { return len(c.local) < c.n }

// TotalBytes returns all bytes moved between distinct ranks so far, as
// accounted by this process: for an in-process cluster that is the whole
// cluster's traffic; for a TCP peer it is the local rank's sent bytes, and
// the cluster-wide total is the sum over peer processes.
func (c *Cluster) TotalBytes() int64 {
	var t int64
	for i := range c.sent {
		t += c.sent[i].Load()
	}
	return t
}

// SentBytes returns the bytes rank r has sent to other ranks.
func (c *Cluster) SentBytes(r int) int64 { return c.sent[r].Load() }

// ReceivedBytes returns the bytes rank r has actually received from other
// ranks. It is credited when Recv delivers, not when Send posts, so under
// faults (dropped or in-flight messages) sent and received totals disagree
// by exactly the undelivered volume; they match after a fault-free run
// quiesces.
func (c *Cluster) ReceivedBytes(r int) int64 { return c.recvd[r].Load() }

// Run spawns one goroutine per local rank executing fn and waits for all of
// them (an in-process cluster runs every rank; a TCP peer runs its one).
// The first error (including simulated rank failures) is returned. A rank
// that returns an error or panics marks the cluster failed, so ranks still
// blocked on it fail promptly with ErrRankDead instead of timing out.
func (c *Cluster) Run(fn func(r *Rank) error) error {
	errs := make([]error, len(c.local))
	var wg sync.WaitGroup
	for i, id := range c.local {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("comm: rank %d panicked: %v", id, p)
				}
				if errs[i] != nil {
					c.markDead(id)
				}
			}()
			errs[i] = fn(c.ranks[id])
		}(i, id)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Rank is one process of the simulated cluster. Each rank lives on its own
// goroutine and owns a reusable deadline timer, so blocking operations are
// allocation-free after the first slow path; the cluster keeps one Rank per
// local rank across Run calls, so later collectives reuse the timer too.
type Rank struct {
	ID    int
	c     *Cluster
	timer *time.Timer
}

// Size returns the communicator size.
func (r *Rank) Size() int { return r.c.n }

// deadline arms the rank's reusable timer with the cluster deadline and
// returns its channel. Every arm must be followed by disarm once the
// owning select returns, whether or not the timer fired.
func (r *Rank) deadline() <-chan time.Time {
	if r.timer == nil {
		r.timer = time.NewTimer(r.c.timeout)
	} else {
		r.timer.Reset(r.c.timeout)
	}
	return r.timer.C
}

// disarm stops the deadline timer and drains a pending tick, leaving the
// timer ready for the next Reset.
func (r *Rank) disarm() {
	if !r.timer.Stop() {
		select {
		case <-r.timer.C:
		default:
		}
	}
}

// ctxErr reports the cluster context's cancellation as the error a rank
// operation returns, or nil while the context is live. The context error is
// wrapped, so callers can match it with errors.Is(err, context.Canceled).
func (c *Cluster) ctxErr(rank int) error {
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("comm: rank %d cancelled: %w", rank, err)
	}
	return nil
}

// Send transfers data to rank `to`. Self-sends are local copies and are not
// counted as communication, mirroring how MPI implementations short-circuit
// them in shared memory. Send fails with ErrRankDead as soon as any rank of
// the cluster has died, with the context error when the cluster's context is
// cancelled, and with a timeout error if the destination link stays full
// past the cluster deadline.
func (r *Rank) Send(to int, data []complex128) error {
	if to < 0 || to >= r.c.n {
		return fmt.Errorf("comm: rank %d sent to invalid rank %d", r.ID, to)
	}
	if err := r.c.ctxErr(r.ID); err != nil {
		return err
	}
	if err := r.c.faultOp(r.ID); err != nil {
		return err
	}
	counted := to != r.ID
	if counted {
		n := int64(bytesPerComplex * len(data))
		r.c.sent[r.ID].Add(n)
		obsSends.Inc()
		obsSentBytes.Add(n)
	}
	if r.c.dropMessage(r.ID, to) {
		return nil
	}
	r.c.delayMessage(r.ID, to)
	buf := append([]complex128(nil), data...)
	ch := r.c.tr.SendCh(r.ID, to)
	select {
	case ch <- buf: // fast path: link has room
		return nil
	default:
	}
	dl := r.deadline()
	select {
	case ch <- buf:
		r.disarm()
		return nil
	case <-r.c.down:
		r.disarm()
		return r.c.deadErr(r.ID)
	case <-r.c.ctx.Done():
		r.disarm()
		return r.c.ctxErr(r.ID)
	case <-dl:
		return fmt.Errorf("comm: rank %d send to %d timed out after %v (link full — protocol mismatch?)", r.ID, to, r.c.timeout)
	}
}

// Recv blocks until a message from rank `from` arrives, the cluster is
// marked failed (ErrRankDead), the cluster's context is cancelled, or the
// deadline passes.
func (r *Rank) Recv(from int) ([]complex128, error) {
	if from < 0 || from >= r.c.n {
		return nil, fmt.Errorf("comm: rank %d received from invalid rank %d", r.ID, from)
	}
	if err := r.c.ctxErr(r.ID); err != nil {
		return nil, err
	}
	if err := r.c.faultOp(r.ID); err != nil {
		return nil, err
	}
	ch := r.c.tr.RecvCh(r.ID, from)
	select {
	case data := <-ch: // fast path: already delivered
		r.creditRecv(from, data)
		return data, nil
	default:
	}
	dl := r.deadline()
	select {
	case data := <-ch:
		r.disarm()
		r.creditRecv(from, data)
		return data, nil
	case <-r.c.down:
		r.disarm()
		// Delivered-before-death beats the death signal: a peer that
		// finished its run and tore down may race its last in-flight
		// messages against the connection-loss notification, and a select
		// with both ready picks randomly. Drain first, so an exchange whose
		// data fully arrived completes instead of spuriously aborting.
		select {
		case data := <-ch:
			r.creditRecv(from, data)
			return data, nil
		default:
		}
		return nil, r.c.deadErr(r.ID)
	case <-r.c.ctx.Done():
		r.disarm()
		return nil, r.c.ctxErr(r.ID)
	case <-dl:
		return nil, fmt.Errorf("comm: rank %d recv from %d timed out after %v (deadlock or dead peer)", r.ID, from, r.c.timeout)
	}
}

// creditRecv runs the receive-side byte accounting for a delivered message.
func (r *Rank) creditRecv(from int, data []complex128) {
	if from == r.ID {
		return
	}
	n := int64(bytesPerComplex * len(data))
	r.c.recvd[r.ID].Add(n)
	obsRecvdBytes.Add(n)
}

// Bcast distributes root's data to every rank and returns each rank's copy.
func (r *Rank) Bcast(root int, data []complex128) ([]complex128, error) {
	if r.ID == root {
		for to := 0; to < r.c.n; to++ {
			if to == root {
				continue
			}
			if err := r.Send(to, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	return r.Recv(root)
}

// Reduce element-wise sums every rank's contribution at root; non-root
// ranks return nil.
func (r *Rank) Reduce(root int, data []complex128) ([]complex128, error) {
	if r.ID != root {
		return nil, r.Send(root, data)
	}
	acc := append([]complex128(nil), data...)
	for from := 0; from < r.c.n; from++ {
		if from == root {
			continue
		}
		part, err := r.Recv(from)
		if err != nil {
			return nil, err
		}
		if len(part) != len(acc) {
			return nil, fmt.Errorf("comm: reduce length mismatch: %d vs %d", len(part), len(acc))
		}
		for i := range acc {
			acc[i] += part[i]
		}
	}
	return acc, nil
}

// Allreduce sums contributions on rank 0 and broadcasts the result.
func (r *Rank) Allreduce(data []complex128) ([]complex128, error) {
	acc, err := r.Reduce(0, data)
	if err != nil {
		return nil, err
	}
	return r.Bcast(0, acc)
}

// Alltoallv exchanges variable-size buffers: send[i] goes to rank i, and
// the returned slice holds what every rank sent to this one. This is the
// collective the communication-avoiding decomposition maps onto (§4.1).
func (r *Rank) Alltoallv(send [][]complex128) ([][]complex128, error) {
	if len(send) != r.c.n {
		return nil, fmt.Errorf("comm: alltoallv needs %d buffers, got %d", r.c.n, len(send))
	}
	sp := obsAlltoallv.Start()
	defer sp.End()
	// Post all sends first (buffered links decouple the phases), then
	// collect.
	for to, buf := range send {
		if err := r.Send(to, buf); err != nil {
			return nil, err
		}
	}
	out := make([][]complex128, r.c.n)
	for from := 0; from < r.c.n; from++ {
		data, err := r.Recv(from)
		if err != nil {
			return nil, err
		}
		out[from] = data
	}
	return out, nil
}
