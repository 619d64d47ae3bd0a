package snapstab

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/snapstab/snapstab/internal/config"
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/runtime"
	"github.com/snapstab/snapstab/internal/sim"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// ErrClosed is returned by requests that were aborted because the
// cluster was closed.
var ErrClosed = errors.New("snapstab: cluster closed")

// clusterCore is the substrate-facing half shared by every cluster type:
// it owns the built substrate, the cluster lifetime context, and the
// request plumbing. The concrete cluster types embed it, so N, Close,
// Stats, and TransportStats are uniform across all five.
type clusterCore struct {
	opt    options
	stacks []core.Stack
	sub    core.Substrate
	simNet *sim.Network    // non-nil on the deterministic substrate
	rtNet  *runtime.Engine // non-nil on the concurrent in-memory substrate

	ctx       context.Context
	cancel    context.CancelFunc
	closeOnce sync.Once
	closeErr  error

	// reqMu[p] serializes requests issued at process p. The machine
	// itself admits one computation at a time (Invoke is rejected until
	// the previous decision), but on the polling substrates two pending
	// conditions at one process would race for the decision window: the
	// loser's Invoke consumes the machine's Done state before the winner
	// observes it, and the winner's completion condition could then never
	// hold. Holding the per-process gate for the whole request makes
	// "requests at one process serialize" true on every substrate.
	reqMu []sync.Mutex
}

// init builds the substrate selected in o from the assembled stacks.
// obs are event observers to subscribe (nil entries are skipped); they
// must be goroutine-safe on the concurrent substrates.
func (c *clusterCore) init(o options, stacks []core.Stack, obs ...core.Observer) {
	c.opt = o
	c.stacks = stacks
	kept := make([]core.Observer, 0, len(obs)+len(o.eventHooks))
	for _, ob := range obs {
		if ob != nil {
			kept = append(kept, ob)
		}
	}
	for _, hook := range o.eventHooks {
		hook := hook
		kept = append(kept, core.ObserverFunc(func(e core.Event) {
			hook(ObservedEvent{Kind: e.Kind.String(), Proc: int(e.Proc), Peer: int(e.Peer), Instance: e.Instance})
		}))
	}
	sub, err := o.substrate.build(o, stacks, kept)
	if err != nil {
		panic("snapstab: substrate construction failed: " + err.Error())
	}
	c.sub = sub
	c.simNet, _ = sub.(*sim.Network)
	c.rtNet, _ = sub.(*runtime.Engine)
	c.reqMu = make([]sync.Mutex, sub.N())
	c.ctx, c.cancel = context.WithCancel(context.Background())
}

// N returns the number of processes.
func (c *clusterCore) N() int { return c.sub.N() }

// Close shuts the cluster down: in-flight requests are aborted with
// ErrClosed and the substrate releases its goroutines and sockets.
// Idempotent and safe to call concurrently.
func (c *clusterCore) Close() error {
	c.closeOnce.Do(func() {
		c.cancel()
		c.closeErr = c.sub.Close()
	})
	return c.closeErr
}

// Stats returns the deterministic scheduler's counters for the whole
// cluster lifetime. On the concurrent substrates — which count different
// things — it returns the zero value; see TransportStats for the
// network substrates (UDP, TCP, and their muxes).
func (c *clusterCore) Stats() sim.Stats {
	var s sim.Stats
	if c.simNet != nil {
		c.simNet.Sync(func() { s = c.simNet.Stats() })
	}
	return s
}

// LinkStats counts one node's traffic with one peer on a network
// substrate (UDP and TCP both track per-link detail).
type LinkStats struct {
	// Peer is the other endpoint of the link.
	Peer int
	// Sent counts messages handed to the network toward Peer.
	Sent int64
	// Received counts messages delivered from Peer.
	Received int64
	// Dropped counts messages lost on this link at this node (dead or
	// backlogged connection on the send side, full mailbox on the
	// receive side).
	Dropped int64
}

// TransportStats holds one node's transport counters, in the same shape
// on every substrate (the mirror of core.TransportStats).
type TransportStats struct {
	// Addr is the node's bound local address ("" on the in-memory
	// substrates, which have no transport).
	Addr string
	// Sends counts messages successfully handed to the network.
	Sends int64
	// Recvs counts messages received into the mailbox layer.
	Recvs int64
	// SendDrops counts messages lost at the sender (failed writes,
	// unencodable payloads, dead or backlogged connections).
	SendDrops int64
	// MailboxDrops counts messages dropped at a full receive mailbox
	// (the model's lose-on-full rule).
	MailboxDrops int64
	// Redials counts reconnection attempts (TCP's dial/accept lifecycle
	// re-establishing lost connections; zero elsewhere).
	Redials int64
	// SendDatagrams and RecvDatagrams count wire frames moved by the
	// socket layer — UDP datagrams, or length-prefixed frames on a TCP
	// stream. With wire v3 batching one frame carries many messages, so
	// Sends/SendDatagrams is the average batch occupancy. Zero on the
	// in-memory substrates.
	SendDatagrams int64
	RecvDatagrams int64
	// SendSyscalls and RecvSyscalls count socket system calls.
	// sendmmsg/recvmmsg (UDP on Linux), vectored writes, and buffered
	// reads (TCP) move several frames per call, so Sends/SendSyscalls
	// measures the syscall amortization the batch path buys. Zero on the
	// in-memory substrates.
	SendSyscalls int64
	RecvSyscalls int64
	// Links holds per-link counters on the network substrates (UDP,
	// TCP), nil otherwise.
	Links []LinkStats
	// Faults counts the faults injected at this node's mailbox boundary
	// by the cluster's FaultPlan (zero without one).
	Faults FaultStats
}

// TransportStats returns one entry per process on every substrate: real
// socket counters on the network substrates (UDP, TCP), zero-valued
// entries on the in-memory ones (sim, runtime), which have no transport.
func (c *clusterCore) TransportStats() []TransportStats {
	ts, ok := c.sub.(core.TransportStatser)
	if !ok {
		return nil
	}
	stats := ts.TransportStats()
	out := make([]TransportStats, len(stats))
	for i, s := range stats {
		out[i] = TransportStats{
			Addr:          s.Addr,
			Sends:         s.Sends,
			Recvs:         s.Recvs,
			SendDrops:     s.SendDrops,
			MailboxDrops:  s.MailboxDrops,
			Redials:       s.Redials,
			SendDatagrams: s.SendDatagrams,
			RecvDatagrams: s.RecvDatagrams,
			SendSyscalls:  s.SendSyscalls,
			RecvSyscalls:  s.RecvSyscalls,
			Faults:        publicFaultStats(s.Faults),
		}
		if len(s.Links) > 0 {
			links := make([]LinkStats, len(s.Links))
			for j, l := range s.Links {
				links[j] = LinkStats{Peer: int(l.Peer), Sent: l.Sent, Received: l.Received, Dropped: l.Dropped}
			}
			out[i].Links = links
		}
	}
	return out
}

// newRequest returns an unstarted request handle. Typed wrappers are
// assembled around it BEFORE start is called, so the completion
// condition may safely write result fields through the wrapper.
func (c *clusterCore) newRequest() *Request {
	return &Request{done: make(chan struct{})}
}

// start launches the request: a goroutine takes process p's request
// gate, awaits cond on the substrate, and completes r with the mapped
// terminal error. label names the operation in error messages. onAbort,
// when non-nil, runs in p's atomic context if the await failed — while
// the gate is still held, so it can undo per-request machine state
// (e.g. an installed critical-section body) before the next request at
// p proceeds.
func (c *clusterCore) start(r *Request, p int, label string, cond func(env core.Env) bool, onAbort func(env core.Env)) {
	if p < 0 || p >= c.sub.N() {
		r.err = fmt.Errorf("%w: %s at %d (cluster has %d)", ErrInvalidProcess, label, p, c.sub.N())
		close(r.done)
		return
	}
	go func() {
		c.reqMu[p].Lock()
		err := c.sub.Await(c.ctx, core.ProcID(p), cond)
		if err != nil && onAbort != nil {
			// Do keeps working after substrate Close (the mutexes
			// outlive the engine), so abort cleanup always runs.
			c.sub.Do(core.ProcID(p), onAbort)
		}
		c.reqMu[p].Unlock()
		if err == nil {
			err = r.fail
		}
		r.err = c.describeErr(err, label, p)
		close(r.done)
	}()
}

// describeErr maps substrate errors onto the façade's sentinel errors.
func (c *clusterCore) describeErr(err error, label string, p int) error {
	var budget *sim.ErrBudget
	switch {
	case err == nil:
		return nil
	case errors.As(err, &budget):
		return fmt.Errorf("%w: %s at %d", ErrBudget, label, p)
	case errors.Is(err, sim.ErrClosed), errors.Is(err, runtime.ErrStopped),
		errors.Is(err, engine.ErrStopped),
		c.ctx.Err() != nil:
		return fmt.Errorf("%w: %s at %d", ErrClosed, label, p)
	}
	return fmt.Errorf("snapstab: %s at %d: %w", label, p, err)
}

// corruptMachines randomizes every machine's protocol state: in one
// scheduler-paused critical section on the deterministic substrate
// (preserving the exact per-seed corruption of earlier revisions), and
// process by process under each substrate-atomic context on the
// concurrent engines.
func (c *clusterCore) corruptMachines(r *rng.Source) {
	if net := c.simNet; net != nil {
		net.Sync(func() { config.CorruptMachines(net, r) })
		return
	}
	for p := 0; p < c.sub.N(); p++ {
		stack := c.stacks[p]
		c.sub.Do(core.ProcID(p), func(core.Env) { stack.Corrupt(r) })
	}
}

// fillChannelGarbage loads random well-formed messages into every
// channel of the listed instances. Preloading channels needs scheduler
// cooperation, so it exists only on the deterministic substrate; on the
// concurrent engines channels start empty, which the model permits (the
// arbitrary state is the machines'). opts tunes the garbage (typed
// clusters draw opaque bodies; the zero value replays legacy streams
// byte-identically).
func (c *clusterCore) fillChannelGarbage(r *rng.Source, specs []config.InstanceSpec, opts config.Options) {
	if net := c.simNet; net != nil {
		net.Sync(func() { config.FillChannels(net, r, specs, opts) })
	}
}

// corrupt is the shared CorruptEverything implementation: randomize all
// machine state, then garbage every listed instance's channels.
func (c *clusterCore) corrupt(r *rng.Source, specs []config.InstanceSpec, opts config.Options) {
	c.corruptMachines(r)
	c.fillChannelGarbage(r, specs, opts)
}
