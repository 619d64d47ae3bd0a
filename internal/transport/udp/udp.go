// Package udp is the datagram mover under the shared node engine
// (internal/transport/engine, DESIGN.md §7): it runs protocol stacks over
// real UDP sockets — the paper's concluding challenge ("actually
// implementing them is a future challenge") made concrete on the
// loopback interface or a LAN.
//
// UDP already provides the model's unreliability; the capacity bound
// Theorem 1 requires is restored by the engine's bounded mailboxes plus a
// capped socket receive buffer, and stacks must be built with a bound
// covering both (DefaultAssumedCapacity; the flag domain grows linearly
// in it, so being conservative is cheap).
//
// Outbound messages coalesce per (destination, group) into wire v3 batch
// frames, flushed at the end of every atomic section and when a batch
// reaches WithBatch messages or the datagram budget; a flush hands every
// pending frame to one sendmmsg where the platform supports it (Linux
// amd64/arm64; elsewhere a portable write loop), and the receive loop
// pulls many datagrams per recvmmsg (DESIGN.md §13). With WithBatch(1)
// default-group traffic keeps the bare wire v1/v2 framing, byte-
// compatible with pre-v3 peers. The receive loop looks each datagram's
// sender up by source address and hands the decoded messages to the
// engine; a malformed datagram is dropped whole — the loss of the
// messages it carried, which the protocols tolerate by design.
package udp

import (
	"fmt"
	"net"
	"net/netip"
	"sync"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// DefaultAssumedCapacity is the per-link capacity bound the transport is
// configured for by default: mailbox slots plus a conservative allowance
// for kernel-buffered datagrams.
const DefaultAssumedCapacity = 64

// DefaultBatch is the default ceiling on messages coalesced into one
// datagram (see WithBatch).
const DefaultBatch = 16

// maxRecordBytes conservatively bounds one batched record (a maximal v2
// frame plus its length prefix); flushCut is the batch size past which
// the next record could overflow the datagram, so the batch is flushed
// first.
const (
	maxRecordBytes = 2*wire.MaxBlobLen + 2048
	flushCut       = wire.MaxDatagram - maxRecordBytes
)

// udpFaultSalt namespaces this substrate's injector seeds within the
// plan's rng.Mix hierarchy (sim, runtime, and tcp use their own salts).
const udpFaultSalt = 0x53

// Option configures a Node; see the engine's options. WithObserver,
// WithTopology, and WithFaults configure the default group, or a
// cluster attached to a Mux.
type Option = engine.Option

// WithBatch sets the maximum number of messages coalesced into one
// datagram (default DefaultBatch; ceiling wire.MaxBatch). Batches also
// flush at the end of every atomic section, so raising the ceiling never
// delays a message past the section that sent it. WithBatch(1) disables
// coalescing entirely: every message is written immediately in its own
// datagram and default-group traffic uses the bare wire v1/v2 framing,
// byte-compatible with peers that predate the v3 batch frame.
func WithBatch(k int) Option { return engine.WithBatch(k) }

// WithObserver subscribes a goroutine-safe event observer; see
// engine.WithObserver.
func WithObserver(ob core.Observer) Option { return engine.WithObserver(ob) }

// WithTopology declares the default group's communication graph; see
// engine.WithTopology.
func WithTopology(t *core.Topology) Option { return engine.WithTopology(t) }

// WithFaults installs a fault-injection plan on the default group; see
// engine.WithFaults. UDP's natural losses compose underneath the plan.
func WithFaults(plan *core.FaultPlan) Option { return engine.WithFaults(plan) }

// Node is one process bound to a UDP socket, hosting one or more groups.
// The engine's methods — Start, Stop, Do, Await, Stats — are promoted.
type Node struct {
	*engine.Node
	mv *mover
}

// mover is the UDP frame mover under one engine node.
type mover struct {
	e       *engine.Node
	self    core.ProcID
	conn    *net.UDPConn
	peers   []*net.UDPAddr
	senders map[netip.AddrPort]core.ProcID // canonical ip:port -> peer, built at Start
	batch   int

	// Outbound batches, guarded by the engine's action mutex: every
	// atomic section flushes them on exit.
	sendBuf []byte // flush scratch: rendered frames
	frames  []frameRef
	pending map[sendKey]*outBatch
	queue   []*outBatch // pending in insertion order
	free    []*outBatch

	decMsgs []core.Message // receive-loop-owned decode scratch

	mm mmsgState // platform batch-IO state (see mmsg_*.go)
	wg sync.WaitGroup
}

// sendKey addresses one pending outbound batch.
type sendKey struct {
	to  core.ProcID
	gid uint64
}

// outBatch is one coalesced datagram under construction.
type outBatch struct {
	to core.ProcID
	g  *engine.Group
	b  wire.BatchBuilder
}

// frameRef locates one rendered datagram in the flush buffer, with the
// accounting context needed after the write.
type frameRef struct {
	off, len int
	to       core.ProcID
	g        *engine.Group
	count    int
}

// NewNode binds process self to laddr. peers maps every process ID
// (including self, whose entry is ignored) to its address. stack becomes
// the node's default group (group 0); a nil stack builds a bare
// mux-style node hosting no groups yet.
func NewNode(self core.ProcID, stack core.Stack, laddr string, peers []string, opts ...Option) (*Node, error) {
	if int(self) >= len(peers) {
		return nil, fmt.Errorf("udp: self %d outside peer list of %d", self, len(peers))
	}
	o := engine.Apply(opts)
	if o.Batch == 0 {
		o.Batch = DefaultBatch
	}
	if o.Batch < 1 || o.Batch > wire.MaxBatch {
		return nil, fmt.Errorf("udp: invalid batch size %d", o.Batch)
	}
	if o.Mailbox == 0 {
		// A full inbound batch lands in one (group, sender, instance)
		// mailbox; give it headroom so batching does not mass-drop at a
		// momentarily quiet receiver.
		o.Mailbox = 8
		if o.Batch > 1 {
			o.Mailbox = 2 * o.Batch
		}
	}
	addr, err := net.ResolveUDPAddr("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udp: resolve local %q: %w", laddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp: listen %q: %w", laddr, err)
	}
	// Bound the kernel backlog so the total in-flight count stays within
	// the assumed capacity (best effort; some platforms round up).
	_ = conn.SetReadBuffer(64 * 1024)

	mv := &mover{
		self:    self,
		conn:    conn,
		peers:   make([]*net.UDPAddr, len(peers)),
		batch:   o.Batch,
		pending: make(map[sendKey]*outBatch),
	}
	for i, p := range peers {
		if core.ProcID(i) == self {
			continue
		}
		a, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("udp: resolve peer %d %q: %w", i, p, err)
		}
		mv.peers[i] = a
	}
	mv.e, err = engine.New(engine.Config{
		Name: "udp", Self: self, N: len(peers), Mailbox: o.Mailbox, FaultSalt: udpFaultSalt,
	}, mv, stack, o.Group)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Node{Node: mv.e, mv: mv}, nil
}

// SetPeer sets the address of peer id after construction, enabling
// two-phase setup: bind every socket with port 0 first, then wire the
// learned addresses. Must be called before Start.
func (n *Node) SetPeer(id core.ProcID, addr *net.UDPAddr) { n.mv.peers[id] = addr }

func (mv *mover) Addr() string { return mv.conn.LocalAddr().String() }

func (mv *mover) SetPeerAddr(id core.ProcID, addr string) error {
	a, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udp: resolve peer %d %q: %w", id, addr, err)
	}
	mv.peers[id] = a
	return nil
}

// Send coalesces m into the pending batch for (to, g). Runs under the
// engine's action mutex.
func (mv *mover) Send(g *engine.Group, to core.ProcID, m core.Message) {
	if mv.peers[to] == nil {
		return
	}
	ob := mv.outFor(to, g)
	if ob.b.Count() > 0 && ob.b.Size() > flushCut {
		// The next record could overflow the datagram: ship what we have.
		mv.flushBatch(ob)
		ob = mv.outFor(to, g)
	}
	if err := ob.b.Add(m); err != nil {
		// Unencodable payloads are dropped: message loss, but counted so
		// the loss is observable.
		mv.e.SendLost(g, to, m, "")
		return
	}
	// The send event fires at enqueue so observers see protocol order;
	// the Sends counter increments at the write, when the datagram
	// actually left.
	mv.e.EmitSend(g, to, m)
	if ob.b.Count() >= mv.batch {
		mv.flushBatch(ob)
	}
}

// outFor returns the pending batch for (to, g), creating one from the
// free list if needed.
func (mv *mover) outFor(to core.ProcID, g *engine.Group) *outBatch {
	k := sendKey{to: to, gid: g.ID()}
	if ob := mv.pending[k]; ob != nil {
		return ob
	}
	var ob *outBatch
	if len(mv.free) > 0 {
		ob = mv.free[len(mv.free)-1]
		mv.free = mv.free[:len(mv.free)-1]
	} else {
		ob = new(outBatch)
	}
	ob.to, ob.g = to, g
	ob.b.Reset(g.ID())
	mv.pending[k] = ob
	mv.queue = append(mv.queue, ob)
	return ob
}

// flushBatch renders and writes one pending batch immediately (count or
// size threshold reached); the emptied batch stays pending.
func (mv *mover) flushBatch(ob *outBatch) {
	mv.sendBuf = ob.b.AppendFrame(mv.sendBuf[:0])
	mv.frames = append(mv.frames[:0], frameRef{
		off: 0, len: len(mv.sendBuf), to: ob.to, g: ob.g, count: ob.b.Count(),
	})
	ob.b.Reset(ob.g.ID())
	mv.sendFrames(mv.sendBuf, mv.frames)
}

// Flush renders every pending batch into the flush buffer and hands the
// lot to the kernel — one sendmmsg covering all destinations where the
// platform allows. The engine calls it at the end of every atomic
// section.
func (mv *mover) Flush() {
	if len(mv.queue) == 0 {
		return
	}
	mv.sendBuf = mv.sendBuf[:0]
	mv.frames = mv.frames[:0]
	for _, ob := range mv.queue {
		if ob.b.Count() > 0 {
			off := len(mv.sendBuf)
			mv.sendBuf = ob.b.AppendFrame(mv.sendBuf)
			mv.frames = append(mv.frames, frameRef{
				off: off, len: len(mv.sendBuf) - off, to: ob.to, g: ob.g, count: ob.b.Count(),
			})
		}
		delete(mv.pending, sendKey{to: ob.to, gid: ob.g.ID()})
		mv.free = append(mv.free, ob)
	}
	mv.queue = mv.queue[:0]
	if len(mv.frames) > 0 {
		mv.sendFrames(mv.sendBuf, mv.frames)
	}
}

// frameFailed accounts one datagram the kernel refused: every message it
// carried is a sender-side loss. The coalesced messages are not retained
// past encoding, so the loss events carry the link, not the body.
func (mv *mover) frameFailed(fr frameRef) {
	for i := 0; i < fr.count; i++ {
		mv.e.SendLost(fr.g, fr.to, core.Message{}, "batched write failed")
	}
}

// frameSent accounts one datagram the kernel accepted.
func (mv *mover) frameSent(fr frameRef) {
	mv.e.Sent(fr.g, fr.to, fr.count)
	mv.e.IO.SendFrames.Add(1)
}

// sendFramesLoop is the portable writer: one sendto per frame. The
// Linux batch path falls back to it when raw access is unavailable.
func (mv *mover) sendFramesLoop(buf []byte, frames []frameRef) {
	for _, fr := range frames {
		mv.e.IO.SendSyscalls.Add(1)
		if _, err := mv.conn.WriteToUDP(buf[fr.off:fr.off+fr.len], mv.peers[fr.to]); err != nil {
			mv.frameFailed(fr)
			continue
		}
		mv.frameSent(fr)
	}
}

// readPortable is the portable reader: one datagram per recvfrom.
func (mv *mover) readPortable(buf []byte, h func([]byte, netip.AddrPort)) {
	sz, from, err := mv.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		return // closed or transient error: the loop decides
	}
	mv.e.IO.RecvSyscalls.Add(1)
	mv.e.IO.RecvFrames.Add(1)
	h(buf[:sz], from)
}

// canonical normalizes an address for sender lookup: 4-in-6 mapped
// addresses (as dual-stack sockets report v4 sources) compare equal to
// their plain IPv4 form.
func canonical(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// Start builds the sender lookup table from the wired peers and launches
// the receive loop.
func (mv *mover) Start() {
	mv.senders = make(map[netip.AddrPort]core.ProcID, len(mv.peers))
	for i, p := range mv.peers {
		if p == nil || core.ProcID(i) == mv.self {
			continue
		}
		mv.senders[canonical(p.AddrPort())] = core.ProcID(i)
	}
	mv.initTransportIO()
	mv.wg.Add(1)
	go mv.recvLoop()
}

// Close closes the socket, which unblocks the receive loop, and waits
// for the loop to exit.
func (mv *mover) Close() {
	mv.conn.Close()
	mv.wg.Wait()
}

// recvLoop moves datagrams from the socket into the engine's mailboxes.
// It never takes the action mutex, so a stalled activation loop (slow
// actions, blocking sends) cannot back it up into kernel-buffer drops.
func (mv *mover) recvLoop() {
	defer mv.wg.Done()
	r := mv.newReader()
	for {
		select {
		case <-mv.e.Done():
			return
		default:
		}
		r.read(mv.handleDatagram)
	}
}

// handleDatagram decodes one datagram (any wire version) and hands its
// messages to the engine as the known peer that sent it.
func (mv *mover) handleDatagram(data []byte, from netip.AddrPort) {
	gid, msgs, err := wire.DecodeBatch(mv.decMsgs[:0], data)
	if err != nil {
		return // malformed datagram: dropped whole (message loss)
	}
	mv.decMsgs = msgs[:0] // keep the grown capacity for the next datagram
	sender, ok := mv.senders[canonical(from)]
	if !ok {
		return // not a known peer: dropped
	}
	mv.e.Receive(sender, gid, msgs)
}

// Cluster is a set of UDP nodes on the loopback interface, one per
// protocol stack, fully wired and started.
type Cluster = engine.Cluster

// MuxCluster is one cluster hosted on a Mux.
type MuxCluster = engine.MuxCluster

// NewCluster binds one loopback socket per stack, wires every node to
// its neighbours, and starts them. The caller owns the cluster and must
// Close it to release the sockets.
func NewCluster(stacks []core.Stack, opts ...Option) (*Cluster, error) {
	return engine.NewCluster("udp", stacks, bind(len(stacks), opts))
}

func bind(n int, opts []Option) engine.Bind {
	return func(self core.ProcID, stack core.Stack) (*engine.Node, error) {
		node, err := NewNode(self, stack, "127.0.0.1:0", make([]string, n), opts...)
		if err != nil {
			return nil, err
		}
		return node.Node, nil
	}
}

// Mux hosts many clusters over one set of UDP sockets; Attach installs
// each as a wire v3 group.
type Mux = engine.Mux

// NewMux binds one loopback socket per process and starts the shared
// loops with no groups attached. Options must be node-level (WithBatch);
// per-cluster options (topology, faults, observers) belong to Attach.
// The caller owns the mux and must Close it to release the sockets.
func NewMux(nProcs int, opts ...Option) (*Mux, error) {
	return engine.NewMux("udp", nProcs, bind(nProcs, opts))
}
