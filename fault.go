package snapstab

import (
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// This file is the public face of the fault-injection plane (DESIGN.md
// §9): mirror types over core.FaultPlan, the WithFaults cluster option,
// and the FaultStats accessor. The same plan value drives every
// substrate — the deterministic simulator applies it at Step delivery
// (replaying exactly from the seed), the runtime at each receiver's link
// table, and the network transports (UDP and TCP, dedicated or muxed) at
// the mailbox boundary, per logical message regardless of how messages
// were batched into wire frames (reproducible decision streams under
// real concurrency).

// LinkFaults is the fault policy of one directed link (or the plan-wide
// default): independent probabilities, all in [0, 1), applied to each
// in-transit message at the delivery boundary.
type LinkFaults struct {
	// DropRate drops the message (link loss).
	DropRate float64
	// DupRate delivers the message twice.
	DupRate float64
	// ReorderRate holds the message back and releases it behind the next
	// message on its link — an adjacent FIFO violation.
	ReorderRate float64
	// DelayRate holds the message for DelayTicks ticks.
	DelayRate float64
	// DelayTicks is how long a delayed message is held (simulator: in
	// scheduler steps; runtime/UDP: in FaultPlan.Unit of wall time).
	DelayTicks int64
	// CorruptRate garbles the message's payloads and handshake fields,
	// keeping it routable — garbage the protocols must reject, not mere
	// loss.
	CorruptRate float64
}

// Link selects one directed physical link for a per-link policy override.
type Link struct {
	From, To int
}

// PartitionWindow splits the cluster for [From, Until) ticks: every
// message crossing between GroupA and the rest is dropped. The window's
// end is the heal.
type PartitionWindow struct {
	From, Until int64
	// GroupA is one side of the partition; every process not listed is on
	// the other side.
	GroupA []int
}

// CrashWindow silences one process for [From, Until) ticks: it takes no
// actions and arriving messages are consumed with no effect. At Until it
// resumes with its state intact — a crash followed by a warm restart,
// which snap-stabilization absorbs like any other transient fault.
type CrashWindow struct {
	Proc        int
	From, Until int64
}

// FaultPlan is one complete adversarial schedule for a cluster: per-link
// policies plus partition and crash-restart windows, all rooted in one
// seed. The zero value injects nothing (and is free: executions are
// byte-identical to a cluster without a plan). See DESIGN.md §9 for the
// per-substrate determinism contract.
type FaultPlan struct {
	// Seed roots every fault decision. On the Sim substrate the whole
	// run — faults included — replays exactly from (cluster options,
	// plan); on Runtime and UDP the per-receiver decision streams are
	// reproducible but their interleaving is real concurrency.
	Seed uint64
	// Default applies to every directed link without an override.
	Default LinkFaults
	// Links overrides the default per directed link.
	Links map[Link]LinkFaults
	// Partitions are the scheduled split-brain windows.
	Partitions []PartitionWindow
	// Crashes are the scheduled crash-restart windows.
	Crashes []CrashWindow
	// Unit is the tick length on the real-time substrates (default 1ms).
	// The simulator ignores it: one tick is one scheduler step.
	Unit time.Duration
}

// internal converts the public plan to the core representation.
func (p FaultPlan) internal() *core.FaultPlan {
	out := &core.FaultPlan{
		Seed:    p.Seed,
		Default: core.LinkFaults(p.Default),
		Unit:    p.Unit,
	}
	if len(p.Links) > 0 {
		out.Links = make(map[core.LinkSel]core.LinkFaults, len(p.Links))
		for sel, f := range p.Links {
			out.Links[core.LinkSel{From: core.ProcID(sel.From), To: core.ProcID(sel.To)}] = core.LinkFaults(f)
		}
	}
	for _, w := range p.Partitions {
		cw := core.PartitionWindow{From: w.From, Until: w.Until}
		for _, q := range w.GroupA {
			cw.GroupA = append(cw.GroupA, core.ProcID(q))
		}
		out.Partitions = append(out.Partitions, cw)
	}
	for _, w := range p.Crashes {
		out.Crashes = append(out.Crashes, core.CrashWindow{Proc: core.ProcID(w.Proc), From: w.From, Until: w.Until})
	}
	return out
}

// WithFaults installs a fault-injection plan on the cluster's substrate.
// An invalid plan (a rate outside [0,1), a window ending before it
// starts) panics at cluster construction, like the other option
// validations.
func WithFaults(plan FaultPlan) Option {
	return func(o *options) { o.faults = plan.internal() }
}

// FaultStats counts the faults injected by the cluster's FaultPlan, by
// category; all zero when no plan is installed.
type FaultStats struct {
	// Drops counts messages dropped by DropRate.
	Drops int64
	// Duplicates counts extra copies delivered by DupRate.
	Duplicates int64
	// Reorders counts messages held back by ReorderRate.
	Reorders int64
	// Delays counts messages held back by DelayRate.
	Delays int64
	// Corrupts counts messages garbled by CorruptRate.
	Corrupts int64
	// PartitionDrops counts messages dropped crossing an open partition.
	PartitionDrops int64
	// CrashDrops counts messages consumed by a process inside a crash
	// window.
	CrashDrops int64
}

// Total returns the total number of injected faults.
func (s FaultStats) Total() int64 {
	return s.Drops + s.Duplicates + s.Reorders + s.Delays + s.Corrupts +
		s.PartitionDrops + s.CrashDrops
}

// publicFaultStats mirrors the core counters into the façade type. The
// direct conversion fails to compile if the two counter sets ever
// diverge.
func publicFaultStats(s core.FaultStats) FaultStats {
	return FaultStats(s)
}

// FaultStats returns the injected-fault counters for the whole cluster
// lifetime, aggregated across processes on the concurrent substrates.
// Safe to call while requests are in flight.
func (c *clusterCore) FaultStats() FaultStats {
	var agg core.FaultStats
	switch {
	case c.simNet != nil:
		c.simNet.Sync(func() { agg = c.simNet.Stats().Faults })
	case c.rtNet != nil:
		agg = c.rtNet.FaultStats()
	default:
		// The network substrates surface their injector counters through
		// the transport-stats interface.
		if ts, ok := c.sub.(core.TransportStatser); ok {
			for _, s := range ts.TransportStats() {
				agg.Add(s.Faults)
			}
		}
	}
	return publicFaultStats(agg)
}
