// Package engine is the node engine the socket transports share. The
// paper's protocols are snap-stabilizing only over channels with a
// known capacity bound; on sockets that bound is realized at one
// boundary — a bounded mailbox per (group, sender, instance), with the
// fault plane just in front of it — and this package owns that boundary
// together with everything around it: hosted groups, the activation
// loop, atomic sections, notification-driven Await, counters, and the
// Cluster/Mux substrate views. UDP and TCP plug in below it as a Mover,
// which only moves frames (DESIGN.md §7).
//
// # Locks
//
// mu is the action mutex: every atomic section — a mailbox drain, a
// step round, a Do — runs under it, and so does every Mover.Send and
// Mover.Flush. mbMu guards the double-buffered mailboxes and is never
// held across a protocol action or a socket operation, so a stalled
// action cannot back the receive loops up into kernel-buffer drops.
// injMu (per group) guards the fault injector, which the movers' receive
// loops share. The order is mu → mbMu → injMu (snapvet lockorder).
//
// # Waiters
//
// Await registers its condition in the group's waiter registry. The
// condition is evaluated at registration and again at the end of every
// atomic section that touched the group, under mu, so an Await returns
// in the section that made its condition true — there is no poll.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/rng"
)

// StepInterval paces every group's internal protocol actions. Action A2
// retransmits on every activation, so this is the retransmission
// interval; unpaced retransmission floods the path and the queueing
// delay stalls the handshake. Deliveries, by contrast, are event-driven
// and unpaced.
const StepInterval = 2 * time.Millisecond

// sweepInterval is the fallback mailbox sweep. Drains are
// notification-driven, so the sweep is a safety net; it is also the
// cadence at which delayed fault-plan messages are released.
const sweepInterval = time.Millisecond

// ErrStopped is returned by Await when the node stopped, or the cluster
// was closed, before the condition held.
var ErrStopped = errors.New("transport: stopped")

// Mover moves one node's frames: the part of a socket transport that
// differs between UDP and TCP. The engine calls Send and Flush under the
// action mutex; the mover hands inbound messages to Node.Receive and
// reports outbound fates through Node.Sent and Node.SendLost.
type Mover interface {
	// Send moves m toward peer to on group g. The engine has already
	// checked the peer range and g's topology. An unwired peer is
	// skipped silently; every other fate is accounted by the mover,
	// including the EvSend event (Node.EmitSend).
	Send(g *Group, to core.ProcID, m core.Message)
	// Flush ends an atomic section: anything Send buffered leaves now.
	Flush()
	// Start launches the mover's loops; called once by Node.Start.
	Start()
	// Close stops the mover's loops and releases its sockets. It runs
	// once, after the activation loop exited — also on a node that was
	// never started.
	Close()
	// Addr returns the bound local address.
	Addr() string
	// SetPeerAddr wires peer id's address; only before Start.
	SetPeerAddr(id core.ProcID, addr string) error
}

// IOCounters are the socket-level counters a mover keeps on its node;
// every group's TransportStats reports them. A frame is a datagram on
// UDP and a length-prefixed frame on TCP.
type IOCounters struct {
	SendFrames, RecvFrames, SendSyscalls, RecvSyscalls, Redials atomic.Int64
}

// Config fixes one node's engine parameters.
type Config struct {
	// Name prefixes error messages ("udp", "tcp").
	Name string
	// Self is the hosted process; N the number of processes.
	Self core.ProcID
	N    int
	// Mailbox is the bound of every (group, sender, instance) mailbox.
	Mailbox int
	// FaultSalt namespaces the injector seeds within the plan's rng.Mix
	// hierarchy, one salt per substrate.
	FaultSalt uint64
}

// GroupConfig is the per-cluster part of a node's configuration: what
// differs between the groups sharing one node's sockets.
type GroupConfig struct {
	Topology  *core.Topology
	Faults    *core.FaultPlan
	Observers core.MultiObserver
}

// Option configures a node of either mover. WithObserver, WithTopology,
// and WithFaults configure a group: the node's default group at
// construction, an attached cluster at Mux.Attach. The others are
// node-level.
type Option func(*Options)

// Options collects what the Option functions set.
type Options struct {
	Group GroupConfig
	// Batch is the mover's batching bound; 0 selects its default.
	Batch int
	// Mailbox (the mailbox bound) and DialMin/DialMax (TCP's redial
	// backoff) override fixed parameters; only tests set them.
	Mailbox          int
	DialMin, DialMax time.Duration
}

// Apply folds opts into one Options value.
func Apply(opts []Option) Options {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

func (o Options) nodeLevel() bool {
	return o.Batch != 0 || o.Mailbox != 0 || o.DialMin != 0 || o.DialMax != 0
}

// WithBatch sets the mover's batching bound: messages coalesced per
// datagram on UDP, frames per vectored write on TCP.
func WithBatch(k int) Option {
	return func(o *Options) { o.Batch = k }
}

// WithObserver subscribes an event observer. Callbacks arrive
// concurrently from the receive loops (mailbox-full EvLose), the
// activation loop, and — on TCP — the writer goroutines (EvSendLost on
// dead connections), so the observer must be goroutine-safe.
func WithObserver(ob core.Observer) Option {
	return func(o *Options) { o.Group.Observers = append(o.Group.Observers, ob) }
}

// WithTopology declares the group's communication graph: sends to
// non-neighbours are dropped (and counted) at the sender even if an
// address is wired, messages from non-neighbours are rejected at the
// receiver, and the installed fault plan is validated against the edge
// set. On a default group it also shapes the socket layer: NewCluster
// wires only neighbour addresses, and TCP admits connections only from
// neighbours. The default (nil) is the complete graph.
func WithTopology(t *core.Topology) Option {
	return func(o *Options) { o.Group.Topology = t }
}

// WithFaults installs a fault-injection plan (see core.FaultPlan) on the
// group, interposed at the mailbox boundary: every decoded message from
// a known peer — individually, however frames packed messages — passes
// the group's injector before it is boxed, which may drop, duplicate,
// corrupt, reorder, or delay it, honor partition windows, and silence
// the group inside crash windows (no internal actions, no mailbox
// drains, arrivals consumed). The injector is seeded
// rng.Mix(plan.Seed, salt, self), plus the group id for attached groups;
// schedule windows are measured in plan.Unit ticks of wall time from
// Start (from Attach for attached groups). The transport's own losses
// compose underneath the plan, exactly as on a real adversarial network.
func WithFaults(plan *core.FaultPlan) Option {
	return func(o *Options) { o.Group.Faults = plan }
}

// Group is one protocol stack hosted on a node: an independent cluster
// member with its own routing, observers, topology, fault plane,
// waiters, and message counters, multiplexed with its siblings over the
// node's sockets by the wire v3 group id.
type Group struct {
	id        uint64
	stack     core.Stack
	routes    map[string]core.Machine
	topo      *core.Topology
	observers core.MultiObserver
	fault     *core.FaultPlan
	faultUnit time.Duration
	epoch     time.Time // fault-schedule tick zero; set before the group is visible to the loops

	injMu sync.Mutex // the injector is shared by the movers' receive loops
	inj   *core.Injector

	waiters waiters
	touched bool // delivered to in the current drain; guarded by mu

	sends        atomic.Int64
	recvs        atomic.Int64
	sendDrops    atomic.Int64
	mailboxDrops atomic.Int64
}

// ID returns the wire v3 group id (0 for a node's default group).
func (g *Group) ID() uint64 { return g.id }

// Emit hands ev to the group's observers.
func (g *Group) Emit(ev core.Event) {
	if len(g.observers) > 0 {
		g.observers.OnEvent(ev)
	}
}

// now returns the group's fault-schedule tick: wall time since its epoch
// in plan.Unit ticks. Only meaningful when a fault plan is installed.
func (g *Group) now() int64 {
	return int64(time.Since(g.epoch) / g.faultUnit)
}

// down reports whether the group is inside a crash window for self.
func (g *Group) down(self core.ProcID) bool {
	return g.fault != nil && g.fault.Down(self, g.now())
}

// groupSet is the copy-on-write view of a node's hosted groups, swapped
// atomically so the loops read it without locks.
type groupSet struct {
	byID map[uint64]*Group
	list []*Group
}

type mailKey struct {
	gid      uint64
	from     core.ProcID
	instance string
}

// Node is one process's engine: the groups it hosts, their mailboxes,
// and the activation loop, over one Mover.
type Node struct {
	name   string
	self   core.ProcID
	nProcs int
	slots  int
	salt   uint64
	mover  Mover

	g0 *Group // the default group (nil on mux-hosted nodes)

	gmu     sync.Mutex // serializes attach/detach and Stop's waiter release
	groups  atomic.Pointer[groupSet]
	stopped bool // guarded by gmu

	// mu is the action mutex (see the package comment).
	mu      sync.Mutex
	touched []*Group // groups delivered to in the current drain

	// mbMu guards the double-buffered mailboxes.
	mbMu      sync.Mutex
	mailboxes map[mailKey][]core.Message // filled by the receive path
	spare     map[mailKey][]core.Message // drained buffer, swapped in by the activation loop
	boxed     int                        // messages currently in mailboxes
	mail      chan struct{}              // capacity 1: drain wakeup

	// IO holds the mover's socket-level counters.
	IO          IOCounters
	linkSent    []atomic.Int64
	linkRecvd   []atomic.Int64
	linkDropped []atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// New builds a node engine over mover. stack becomes its default group
// (group 0), configured by group; a nil stack builds a bare mux-style
// node, which must carry no group configuration.
func New(cfg Config, mover Mover, stack core.Stack, group GroupConfig) (*Node, error) {
	n := &Node{
		name:        cfg.Name,
		self:        cfg.Self,
		nProcs:      cfg.N,
		slots:       cfg.Mailbox,
		salt:        cfg.FaultSalt,
		mover:       mover,
		mailboxes:   make(map[mailKey][]core.Message),
		spare:       make(map[mailKey][]core.Message),
		mail:        make(chan struct{}, 1),
		linkSent:    make([]atomic.Int64, cfg.N),
		linkRecvd:   make([]atomic.Int64, cfg.N),
		linkDropped: make([]atomic.Int64, cfg.N),
		stop:        make(chan struct{}),
	}
	n.groups.Store(&groupSet{byID: map[uint64]*Group{}})
	if stack == nil {
		if group.Topology != nil || group.Faults != nil || len(group.Observers) > 0 {
			return nil, fmt.Errorf("%s: group option on a node with no default group", n.name)
		}
		return n, nil
	}
	g, err := n.buildGroup(0, stack, group)
	if err != nil {
		return nil, err
	}
	n.g0 = g
	n.setGroup(0, g)
	return n, nil
}

// buildGroup assembles and validates one hosted group.
func (n *Node) buildGroup(id uint64, stack core.Stack, cfg GroupConfig) (*Group, error) {
	topo, plan := cfg.Topology, cfg.Faults
	if topo != nil && topo.N() != n.nProcs {
		return nil, fmt.Errorf("%s: topology over %d processes, %d peers", n.name, topo.N(), n.nProcs)
	}
	g := &Group{
		id:        id,
		stack:     stack,
		routes:    stack.ByInstance(),
		topo:      topo,
		observers: cfg.Observers,
		fault:     plan,
	}
	if plan != nil {
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", n.name, err)
		}
		if err := plan.ValidateTopology(topo); err != nil {
			return nil, fmt.Errorf("%s: %w", n.name, err)
		}
		g.faultUnit = plan.TickUnit()
		seed := rng.Mix(plan.Seed, n.salt, uint64(n.self))
		if id != 0 {
			// Extra groups get distinct injector streams; group 0 keeps the
			// exact legacy seeding so recorded runs stay reproducible.
			seed = rng.Mix(plan.Seed, n.salt, uint64(n.self), id)
		}
		g.inj = core.NewInjector(plan, rng.New(seed))
	}
	return g, nil
}

// setGroup publishes the group set with id mapped to g, or with id
// removed when g is nil (copy-on-write). A group attached to a stopped
// node has its waiters released at once. A removed group's boxed mail is
// discarded on the next drain, and inbound frames for it are dropped.
func (n *Node) setGroup(id uint64, g *Group) {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	if g != nil && n.stopped {
		g.waiters.Close(ErrStopped)
	}
	old := n.groups.Load()
	gs := &groupSet{byID: make(map[uint64]*Group, len(old.byID)+1)}
	for gid, og := range old.byID {
		if gid != id {
			gs.byID[gid] = og
			gs.list = append(gs.list, og)
		}
	}
	if g != nil {
		gs.byID[id] = g
		gs.list = append(gs.list, g)
	}
	n.groups.Store(gs)
}

// Topology returns the default group's communication graph: nil on a
// mux node or for the complete graph.
func (n *Node) Topology() *core.Topology {
	if n.g0 == nil {
		return nil
	}
	return n.g0.topo
}

// Done is closed when the node begins to stop; mover loops select on it.
func (n *Node) Done() <-chan struct{} { return n.stop }

// env implements core.Env for one group; use only under mu.
type env struct {
	n *Node
	g *Group
}

func (v env) Self() core.ProcID { return v.n.self }
func (v env) N() int            { return v.n.nProcs }

func (v env) Send(to core.ProcID, m core.Message) {
	n, g := v.n, v.g
	if to < 0 || int(to) >= n.nProcs {
		return
	}
	if g.topo != nil && !g.topo.HasEdge(n.self, to) {
		// Not a neighbour under the topology: no channel exists, the send
		// vanishes at the sender (and is counted, unlike an unwired peer).
		g.sendDrops.Add(1)
		g.Emit(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m, Note: "no edge"})
		return
	}
	n.mover.Send(g, to, m)
}

func (v env) Emit(ev core.Event) {
	ev.Proc = v.n.self
	v.g.Emit(ev)
}

// EmitSend reports m's send toward peer to on group g.
func (n *Node) EmitSend(g *Group, to core.ProcID, m core.Message) {
	g.Emit(core.Event{Kind: core.EvSend, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m})
}

// Sent accounts k messages of group g that entered the channel toward
// peer to.
func (n *Node) Sent(g *Group, to core.ProcID, k int) {
	g.sends.Add(int64(k))
	n.linkSent[to].Add(int64(k))
}

// SendLost accounts one message of group g lost at the sender on its way
// to peer to, and reports it as EvSendLost. m is the zero Message when
// the body is no longer at hand (a failed batched write).
func (n *Node) SendLost(g *Group, to core.ProcID, m core.Message, note string) {
	g.sendDrops.Add(1)
	n.linkDropped[to].Add(1)
	g.Emit(core.Event{Kind: core.EvSendLost, Proc: n.self, Peer: to, Instance: m.Instance, Msg: m, Note: note})
}

// Receive is the one receive path: the messages of one inbound frame
// from sender for group gid pass the group's topology check, then — per
// logical message, however the frame packed them — the fault plane,
// then the bounded mailbox. Movers call it from their receive loops,
// concurrently.
func (n *Node) Receive(sender core.ProcID, gid uint64, msgs []core.Message) {
	g := n.groups.Load().byID[gid]
	if g == nil {
		return // no such group here (stale or stray traffic): dropped
	}
	if g.topo != nil && !g.topo.HasEdge(sender, n.self) {
		return // not a neighbour in this group's graph: dropped
	}
	for _, m := range msgs {
		if g.inj == nil {
			n.box(g, sender, m)
			continue
		}
		n.inject(g, sender, m)
	}
}

// inject passes one message through g's fault plane and boxes what
// survives.
func (n *Node) inject(g *Group, sender core.ProcID, m core.Message) {
	// Filter returns the injector's reusable scratch, which another
	// receive loop may rewrite as soon as injMu drops, and mbMu ranks
	// above injMu: copy the survivors out before boxing them.
	var stack [4]core.Message
	g.injMu.Lock()
	out, fate := g.inj.Filter(sender, n.self, m, g.now())
	out = append(stack[:0], out...)
	g.injMu.Unlock()
	if fate == core.FateDrop {
		g.Emit(core.Event{Kind: core.EvLose, Proc: n.self, Peer: sender, Instance: m.Instance, Msg: m})
	}
	for _, dm := range out {
		n.box(g, sender, dm)
	}
}

// box appends one in-transit message to its bounded mailbox (the model's
// lose-on-full rule applies) and wakes the activation loop.
func (n *Node) box(g *Group, sender core.ProcID, m core.Message) {
	key := mailKey{gid: g.id, from: sender, instance: m.Instance}
	n.mbMu.Lock()
	b := n.mailboxes[key]
	full := len(b) >= n.slots
	if !full {
		n.mailboxes[key] = append(b, m)
		n.boxed++
	}
	n.mbMu.Unlock()
	if full {
		// Lose-on-full: the message was in transit and is dropped at the
		// receiver — the model's link loss, not a send failure.
		g.mailboxDrops.Add(1)
		n.linkDropped[sender].Add(1)
		g.Emit(core.Event{Kind: core.EvLose, Proc: n.self, Peer: sender, Instance: m.Instance, Msg: m})
		return
	}
	g.recvs.Add(1)
	n.linkRecvd[sender].Add(1)
	select {
	case n.mail <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// Start launches the mover and the activation loop. Peers must not
// change after Start.
func (n *Node) Start() {
	epoch := time.Now() // fault-schedule tick zero
	for _, g := range n.groups.Load().list {
		g.epoch = epoch
	}
	n.mover.Start()
	n.wg.Add(1)
	go n.actLoop()
}

// actLoop delivers mailbox batches as soon as the receive path signals
// them and runs every group's internal actions at the step interval.
func (n *Node) actLoop() {
	defer n.wg.Done()
	step := time.NewTicker(StepInterval)
	defer step.Stop()
	sweep := time.NewTicker(sweepInterval)
	defer sweep.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-n.mail:
			n.drainMail()
		case <-sweep.C:
			n.releaseDelayed()
			n.drainMail()
		case <-step.C:
			n.stepRound()
		}
	}
}

// releaseDelayed boxes the fault plane's expired delayed messages, so
// they surface even on quiet links.
func (n *Node) releaseDelayed() {
	for _, g := range n.groups.Load().list {
		if g.inj == nil {
			continue
		}
		g.injMu.Lock()
		rel := g.inj.Flush(g.now())
		g.injMu.Unlock()
		for _, r := range rel {
			n.box(g, r.From, r.Msg)
		}
	}
}

// stepRound runs every group's internal actions as one atomic section.
func (n *Node) stepRound() {
	gs := n.groups.Load()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, g := range gs.list {
		ev := env{n: n, g: g}
		if !g.down(n.self) { // crash window: no internal actions until restart
			for _, m := range g.stack {
				m.Step(ev)
			}
		}
		g.waiters.Notify(ev)
	}
	n.mover.Flush()
}

// drainMail swaps the filled mailbox buffer out (one pointer swap under
// mbMu, batching the handoff) and delivers its contents as one atomic
// section, routing each mailbox to its group.
func (n *Node) drainMail() {
	gs := n.groups.Load()
	if len(gs.list) == 1 && gs.list[0].down(n.self) {
		// Sole group crashed: leave everything boxed without swapping.
		return
	}
	n.mbMu.Lock()
	if n.boxed == 0 {
		n.mbMu.Unlock()
		return
	}
	batch := n.mailboxes
	n.mailboxes, n.spare = n.spare, n.mailboxes
	n.boxed = 0
	n.mbMu.Unlock()

	n.mu.Lock()
	defer n.mu.Unlock()
	for key, box := range batch {
		if len(box) == 0 {
			continue
		}
		batch[key] = box[:0]
		g := gs.byID[key.gid]
		switch {
		case g == nil:
			// Group detached: its in-transit mail evaporates.
		case g.down(n.self):
			n.rebox(g, key, box)
		default:
			if mach, ok := g.routes[key.instance]; ok {
				ev := env{n: n, g: g}
				for _, m := range box {
					g.Emit(core.Event{Kind: core.EvDeliver, Proc: n.self, Peer: key.from, Instance: key.instance, Msg: m})
					mach.Deliver(ev, key.from, m)
				}
			}
			// A message addressed to an unknown instance is consumed with
			// no effect, like a receive action with a false guard.
			if !g.touched {
				g.touched = true
				n.touched = append(n.touched, g)
			}
		}
	}
	for i, g := range n.touched {
		g.touched = false
		g.waiters.Notify(env{n: n, g: g})
		n.touched[i] = nil
	}
	n.touched = n.touched[:0]
	n.mover.Flush()
}

// rebox keeps the mail of a group inside a crash window in transit: it
// goes back into the filling mailbox, untouched, and the sweep retries
// after the window; what no longer fits is dropped and counted (the
// lose-on-full rule again). Callers hold mu.
func (n *Node) rebox(g *Group, key mailKey, msgs []core.Message) {
	n.mbMu.Lock()
	defer n.mbMu.Unlock()
	b := n.mailboxes[key]
	for _, m := range msgs {
		if len(b) >= n.slots {
			g.mailboxDrops.Add(1)
			continue
		}
		b = append(b, m)
		n.boxed++
	}
	n.mailboxes[key] = b
}

// Do runs f as one atomic section with the default group's environment:
// under the action mutex, followed by the group's waiters and a flush of
// any sends f made.
func (n *Node) Do(f func(env core.Env)) {
	n.doGroup(n.defaultGroup(), f)
}

func (n *Node) doGroup(g *Group, f func(env core.Env)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ev := env{n: n, g: g}
	f(ev)
	g.waiters.Notify(ev)
	n.mover.Flush()
}

// Await blocks until cond holds in the default group, ctx ends, or the
// node stops; see core.Substrate for the contract. It returns nil,
// ctx.Err(), or ErrStopped.
func (n *Node) Await(ctx context.Context, cond func(env core.Env) bool) error {
	return n.awaitGroup(ctx, n.defaultGroup(), cond)
}

func (n *Node) awaitGroup(ctx context.Context, g *Group, cond func(env core.Env) bool) error {
	return g.waiters.Await(ctx, func(f func(core.Env)) { n.doGroup(g, f) }, cond)
}

func (n *Node) defaultGroup() *Group {
	if n.g0 == nil {
		panic(n.name + ": no default group on a mux node")
	}
	return n.g0
}

// Stop terminates the activation loop, closes the mover, and releases
// every pending Await with ErrStopped. It is idempotent and safe to call
// from multiple goroutines concurrently.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		close(n.stop)
		n.wg.Wait()
		n.mover.Close()
		n.gmu.Lock()
		n.stopped = true
		for _, g := range n.groups.Load().list {
			g.waiters.Close(ErrStopped)
		}
		n.gmu.Unlock()
	})
}

// Addr returns the bound local address (useful with port 0).
func (n *Node) Addr() string { return n.mover.Addr() }

// Stats returns the default group's counters together with the node's
// socket-level and per-link counters.
func (n *Node) Stats() core.TransportStats {
	return n.groupStats(n.g0)
}

// groupStats assembles the snapshot for one hosted group (nil: a bare
// mux node's socket-level counters only). The per-link and socket-level
// counters are per node, shared by every group it hosts.
func (n *Node) groupStats(g *Group) core.TransportStats {
	s := core.TransportStats{Addr: n.Addr()}
	if g != nil {
		s.Sends = g.sends.Load()
		s.Recvs = g.recvs.Load()
		s.SendDrops = g.sendDrops.Load()
		s.MailboxDrops = g.mailboxDrops.Load()
		if g.inj != nil {
			g.injMu.Lock()
			s.Faults = g.inj.Stats()
			g.injMu.Unlock()
		}
	}
	for p := range n.linkSent {
		if core.ProcID(p) == n.self {
			continue
		}
		s.Links = append(s.Links, core.LinkStats{
			Peer:     core.ProcID(p),
			Sent:     n.linkSent[p].Load(),
			Received: n.linkRecvd[p].Load(),
			Dropped:  n.linkDropped[p].Load(),
		})
	}
	s.SendDatagrams = n.IO.SendFrames.Load()
	s.RecvDatagrams = n.IO.RecvFrames.Load()
	s.SendSyscalls = n.IO.SendSyscalls.Load()
	s.RecvSyscalls = n.IO.RecvSyscalls.Load()
	s.Redials = n.IO.Redials.Load()
	return s
}
