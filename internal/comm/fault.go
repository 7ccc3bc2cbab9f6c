package comm

import (
	"errors"
	"fmt"
	"time"

	"negfsim/internal/obs"
)

// Fault injection: the simulated cluster can kill a rank at a chosen
// communication operation, silently drop messages, or delay delivery — the
// failure modes an extreme-scale NEGF run must survive. Detection is
// cooperative and prompt: the first death closes a per-cluster cancellation
// channel, so every rank blocked in a Send/Recv returns ErrRankDead
// immediately instead of waiting out the full deadline. The deadline itself
// (Cluster.SetTimeout) remains the backstop for silent failures such as
// dropped messages.

// ErrRankDead reports that a communication operation was aborted because a
// rank of the cluster has died (by fault injection, an error return, or a
// panic). Callers detect it with errors.Is and may rebuild a smaller
// cluster and resume from a checkpoint (see core.RunDistributedFTCtx).
var ErrRankDead = errors.New("comm: rank died")

// Fault telemetry (global counters; see docs/OBSERVABILITY.md).
var (
	obsFaultsInjected = obs.GetCounter("comm.faults_injected")
	obsRankDeaths     = obs.GetCounter("comm.rank_deaths")
	obsDroppedMsgs    = obs.GetCounter("comm.dropped_msgs")
)

// FaultPlan describes deterministic faults to inject into a Cluster,
// armed with Cluster.InjectFaults before Run. The zero value injects
// nothing; each fault class has its own enable flag so plans compose.
type FaultPlan struct {
	// Kill enables rank death: KillRank returns ErrRankDead (and marks the
	// whole cluster failed) when it begins its (KillAtOp+1)-th communication
	// operation — Send and Recv calls both count, so collectives die
	// mid-flight. KillAtOp 0 kills on the first operation.
	Kill     bool
	KillRank int
	KillAtOp int

	// Drop enables message loss: cross-rank messages from DropFrom to
	// DropTo are silently discarded after the sender's accounting runs, so
	// sent and received byte totals disagree by exactly the dropped volume.
	// DropLimit bounds the number of drops; 0 means unlimited.
	Drop             bool
	DropFrom, DropTo int
	DropLimit        int

	// Delay, when positive, postpones delivery of every cross-rank message
	// from DelayFrom to DelayTo by the given duration (the sender blocks,
	// modeling a congested link).
	Delay              time.Duration
	DelayFrom, DelayTo int
}

// InjectFaults arms a fault plan on the cluster. Call it before Run; a nil
// plan clears any armed faults. The plan is read-only during the run and
// per-cluster injection state (operation counters, drop budget) starts
// fresh, so the same plan can be reused across clusters.
func (c *Cluster) InjectFaults(p *FaultPlan) {
	c.plan = p
	c.dropsDone.Store(0)
	for i := range c.ops {
		c.ops[i].Store(0)
	}
}

// SetTimeout configures the deadline of every subsequent Send/Recv on the
// cluster (the backstop for silent failures the cancellation channel cannot
// see, such as dropped messages). Call it before Run.
func (c *Cluster) SetTimeout(d time.Duration) {
	if d > 0 {
		c.timeout = d
	}
}

// DeadRank returns the id of the first rank that died, or -1 while every
// rank is healthy.
func (c *Cluster) DeadRank() int { return int(c.deadRank.Load()) }

// markDead records the death of a rank and cancels the cluster: the first
// call publishes the rank id and closes the down channel, unblocking every
// pending operation with ErrRankDead. On a multi-process cluster, the death
// of a locally-hosted rank additionally tears the transport down, so peer
// processes observe the failure as a connection loss immediately — the same
// prompt detection the in-process down channel gives local ranks — instead
// of waiting out their deadline backstop.
func (c *Cluster) markDead(rank int) {
	if c.deadRank.CompareAndSwap(-1, int64(rank)) {
		obsRankDeaths.Inc()
		close(c.down)
		if c.MultiProcess() && rank >= 0 && c.Local(rank) {
			go c.tr.Close() // async: Close waits for link goroutines
		}
	}
}

// deadErr builds the error a surviving rank returns when the cluster has
// been marked failed.
func (c *Cluster) deadErr(observer int) error {
	return fmt.Errorf("comm: rank %d aborted: rank %d is dead: %w", observer, c.DeadRank(), ErrRankDead)
}

// faultOp advances rank's fault-plan operation counter and returns the
// injected death, if this operation is the planned kill point. It is the
// first statement of Send and Recv; with no plan armed it is a nil check.
func (c *Cluster) faultOp(rank int) error {
	p := c.plan
	if p == nil || !p.Kill || p.KillRank != rank {
		return nil
	}
	op := c.ops[rank].Add(1) - 1
	if op != int64(p.KillAtOp) {
		return nil
	}
	obsFaultsInjected.Inc()
	c.markDead(rank)
	return fmt.Errorf("comm: rank %d killed by fault plan at op %d: %w", rank, op, ErrRankDead)
}

// dropMessage reports whether the plan discards a message from→to, spending
// one unit of the drop budget when it does.
func (c *Cluster) dropMessage(from, to int) bool {
	p := c.plan
	if p == nil || !p.Drop || p.DropFrom != from || p.DropTo != to || from == to {
		return false
	}
	if p.DropLimit > 0 && c.dropsDone.Add(1) > int64(p.DropLimit) {
		return false
	}
	obsFaultsInjected.Inc()
	obsDroppedMsgs.Inc()
	return true
}

// delayMessage blocks the sender for the plan's delay when the message
// matches the delayed link.
func (c *Cluster) delayMessage(from, to int) {
	p := c.plan
	if p == nil || p.Delay <= 0 || p.DelayFrom != from || p.DelayTo != to || from == to {
		return
	}
	obsFaultsInjected.Inc()
	time.Sleep(p.Delay)
}
