// Package tcp is the stream mover under the shared node engine
// (internal/transport/engine, DESIGN.md §7, §12): it runs protocol stacks
// over persistent TCP connections — the multi-host deployment substrate
// a snapd fleet spans real hosts with.
//
// TCP is reliable per connection, but the model's channels are lossy
// with a known capacity bound, so the transport restores both at its
// edges: each directed link is one connection fed through a bounded
// outbound queue (a send finding it full, or caught by a dead
// connection, is lost at the sender as core.EvSendLost), and the
// engine's bounded mailboxes apply lose-on-full at the receiver.
// Connection loss is therefore just message loss, which the
// retransmitting protocols tolerate by design.
//
// Every frame is a 4-byte big-endian length prefix and one wire unit:
// bare wire v1/v2 for the default group (byte-compatible with pre-v3
// peers), a count-1 v3 batch frame for any other group. Each outgoing
// link has a writer goroutine that owns its connection — dial with
// bounded exponential backoff, identify with a hello frame, drain the
// queue into one vectored write per wake-up, redial on any error — and
// each accepted connection a reader that validates the hello (peer
// index, topology edge, configured source host) and hands frames to the
// engine. Sends only encode and enqueue, so a blocking socket write
// stalls only its own link's writer, never a protocol action.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// DefaultAssumedCapacity is the per-link capacity bound the transport is
// configured for by default: outbound queue plus mailbox slots plus a
// conservative allowance for socket-buffered frames. The protocol flag
// domain is 2c+2 values and must fit the wire format's one-byte flag
// fields, so the bound must stay <= 126.
const DefaultAssumedCapacity = 64

// Frame format: a 4-byte big-endian length prefix followed by one wire
// frame — bare v1/v2 for the default group, a v3 batch frame for any
// other. maxFrame bounds the declared length against memory exhaustion
// from a malformed or hostile peer; the headroom over a maximal v2
// record covers the v3 batch header and per-record prefixes. A violation
// is a protocol error and closes the connection.
const maxFrame = 2*wire.MaxBlobLen + 8<<10

// Fixed node parameters.
const (
	// sendVecCap is the default bound on how many queued frames one
	// vectored write carries (see WithBatch).
	sendVecCap = 32
	// mailboxSlots bounds every (group, sender, instance) mailbox.
	mailboxSlots = 8
	// sendQueue is the per-link outbound queue length. A send finding
	// the queue full — a dead link under retransmission, a backlogged
	// connection — is dropped at the sender, the bounded-capacity rule
	// applied to the transport's own buffering.
	sendQueue = 32
	// writeTimeout bounds every connect and frame write. A write that
	// cannot complete within it is treated as a lost message and a lost
	// connection.
	writeTimeout = 2 * time.Second
	// The default redial backoff: the first redial after a connection
	// loss waits dialMin, doubling up to dialMax.
	dialMin = 25 * time.Millisecond
	dialMax = time.Second
)

// helloInstance marks the identification frame that opens every dialed
// connection: a regular wire message whose B.Num carries the dialer's
// process index. It is consumed by the transport and never delivered.
const helloInstance = "tcp/hello"

// tcpFaultSalt namespaces this substrate's injector seeds within the
// plan's rng.Mix hierarchy (sim, runtime, and udp use their own salts).
const tcpFaultSalt = 0x7c

// Option configures a Node; see the engine's options. WithObserver,
// WithTopology, and WithFaults configure the default group, or a
// cluster attached to a Mux.
type Option = engine.Option

// WithBatch bounds how many queued frames one vectored write may carry
// (default 32). WithBatch(1) gives every frame its own write system
// call — the pre-amortization behavior. Unlike UDP's coalescing knob
// this is purely a syscall bound: frames are never merged or delayed,
// so the bytes on the wire are identical at every setting.
func WithBatch(k int) Option { return engine.WithBatch(k) }

// WithObserver subscribes a goroutine-safe event observer; see
// engine.WithObserver.
func WithObserver(ob core.Observer) Option { return engine.WithObserver(ob) }

// WithTopology declares the default group's communication graph; see
// engine.WithTopology. Inbound connections from non-neighbours are
// rejected at the hello.
func WithTopology(t *core.Topology) Option { return engine.WithTopology(t) }

// WithFaults installs a fault-injection plan on the default group; see
// engine.WithFaults. TCP's own connection losses compose underneath the
// plan.
func WithFaults(plan *core.FaultPlan) Option { return engine.WithFaults(plan) }

// outFrame is one encoded frame queued on a link, tagged with the group
// whose counters and observers account for its fate.
type outFrame struct {
	b []byte
	g *engine.Group
}

// link is one outgoing directed edge: a bounded queue of encoded frames
// drained by a writer goroutine that owns the connection lifecycle.
type link struct {
	peer core.ProcID
	addr string
	q    chan outFrame
}

// Node is one process bound to a TCP listener, hosting one or more
// groups. The engine's methods — Start, Stop, Do, Await, Stats — are
// promoted.
type Node struct {
	*engine.Node
	mv *mover
}

// mover is the TCP frame mover under one engine node.
type mover struct {
	e                *engine.Node
	self             core.ProcID
	ln               net.Listener
	peerAddrs        []string
	vecCap           int
	dialMin, dialMax time.Duration

	sendOne [1]core.Message // v3 single-record scratch, under the action mutex
	out     []*link         // indexed by peer; nil for self, unwired, or non-neighbour

	// connMu guards the accepted-connection registry used for teardown:
	// Close closes every registered connection to unblock its reader.
	connMu   sync.Mutex
	accepted map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup
}

// NewNode binds process self to laddr. peers maps every process ID
// (including self, whose entry is ignored) to its address; empty entries
// may be wired later with SetPeer, before Start. stack becomes the
// node's default group (group 0); a nil stack builds a bare mux-style
// node hosting no groups yet.
func NewNode(self core.ProcID, stack core.Stack, laddr string, peers []string, opts ...Option) (*Node, error) {
	if int(self) >= len(peers) || self < 0 {
		return nil, fmt.Errorf("tcp: self %d outside peer list of %d", self, len(peers))
	}
	o := engine.Apply(opts)
	if o.Batch == 0 {
		o.Batch = sendVecCap
	}
	if o.DialMin == 0 && o.DialMax == 0 {
		o.DialMin, o.DialMax = dialMin, dialMax
	}
	if o.Batch < 1 {
		return nil, fmt.Errorf("tcp: invalid batch %d", o.Batch)
	}
	if o.DialMin <= 0 || o.DialMax < o.DialMin {
		return nil, fmt.Errorf("tcp: invalid backoff %v..%v", o.DialMin, o.DialMax)
	}
	ln, err := net.Listen("tcp", laddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %q: %w", laddr, err)
	}
	mv := &mover{
		self:      self,
		ln:        ln,
		peerAddrs: append([]string(nil), peers...),
		vecCap:    o.Batch,
		dialMin:   o.DialMin,
		dialMax:   o.DialMax,
		out:       make([]*link, len(peers)),
		accepted:  make(map[net.Conn]struct{}),
	}
	mv.e, err = engine.New(engine.Config{
		Name: "tcp", Self: self, N: len(peers), Mailbox: mailboxSlots, FaultSalt: tcpFaultSalt,
	}, mv, stack, o.Group)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &Node{Node: mv.e, mv: mv}, nil
}

// SetPeer sets the address of peer id after construction, enabling
// two-phase setup: bind every listener with port 0 first, then wire the
// learned addresses. Must be called before Start.
func (n *Node) SetPeer(id core.ProcID, addr string) { n.mv.peerAddrs[id] = addr }

func (mv *mover) Addr() string { return mv.ln.Addr().String() }

func (mv *mover) SetPeerAddr(id core.ProcID, addr string) error {
	mv.peerAddrs[id] = addr
	return nil
}

// Start launches the accept loop and one writer per wired outgoing link.
func (mv *mover) Start() {
	topo := mv.e.Topology()
	for p, addr := range mv.peerAddrs {
		id := core.ProcID(p)
		if id == mv.self || addr == "" {
			continue
		}
		if topo != nil && !topo.HasEdge(mv.self, id) {
			// A wired address that is not a neighbour of the default group
			// never gets a link: its sends vanish at the sender, counted,
			// like on UDP. (A mux node has no default topology and wires
			// everything; its groups restrict traffic per message.)
			continue
		}
		l := &link{peer: id, addr: addr, q: make(chan outFrame, sendQueue)}
		mv.out[p] = l
		mv.wg.Add(1)
		go mv.writeLoop(l)
	}
	mv.wg.Add(1)
	go mv.acceptLoop()
}

// Close closes the listener and every accepted connection, then waits
// for the accept, reader, and writer goroutines to exit.
func (mv *mover) Close() {
	mv.ln.Close()
	mv.connMu.Lock()
	mv.closed = true
	for c := range mv.accepted {
		c.Close()
	}
	mv.connMu.Unlock()
	mv.wg.Wait()
}

// Flush is a no-op: every frame is enqueued on its link as it is sent.
func (mv *mover) Flush() {}

// framePool recycles encoded frames between Send (producer) and the
// writer goroutines (consumer), so steady-state sending allocates only
// when a frame outgrows its recycled buffer.
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// Send encodes m and enqueues it on the link to peer to. Runs under the
// engine's action mutex and never blocks.
func (mv *mover) Send(g *engine.Group, to core.ProcID, m core.Message) {
	l := mv.out[to]
	if l == nil {
		return
	}
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	var err error
	if g.ID() == 0 {
		// The default group keeps the bare v1/v2 framing, byte-compatible
		// with peers that predate the v3 batch frame.
		buf, err = wire.AppendEncode(buf, m)
	} else {
		mv.sendOne[0] = m
		buf, err = wire.AppendBatch(buf, g.ID(), mv.sendOne[:])
		mv.sendOne[0] = core.Message{}
	}
	if err != nil {
		*bp = buf[:0]
		framePool.Put(bp)
		mv.e.SendLost(g, to, m, "")
		return
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	*bp = buf
	select {
	case l.q <- outFrame{b: buf, g: g}:
		mv.e.Sent(g, to, 1)
		mv.e.EmitSend(g, to, m)
	default:
		// Queue full: the bounded channel's lose-on-full rule applied at
		// the sender (a dead link under retransmission fills it fast).
		framePool.Put(bp)
		mv.e.SendLost(g, to, m, "queue full")
	}
}

// helloFrame encodes this node's identification frame (always a bare
// group-0 frame, so pre-v3 peers can validate it).
func (mv *mover) helloFrame() []byte {
	buf := []byte{0, 0, 0, 0}
	buf, err := wire.AppendEncode(buf, core.Message{
		Instance: helloInstance,
		Kind:     "HELLO",
		B:        core.Payload{Num: int64(mv.self)},
	})
	if err != nil {
		panic("tcp: hello frame unencodable: " + err.Error())
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}

// dial establishes one connection for l: connect, enable keepalive (so a
// silently dead peer eventually fails the writer out of its connection),
// and identify with the hello frame.
func (mv *mover) dial(l *link) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", l.addr, writeTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(30 * time.Second)
		_ = tc.SetNoDelay(true)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(mv.helloFrame()); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// writeLoop owns l's connection lifecycle: dial with exponential
// backoff, stream frames, redial on any error. Each wake-up drains every
// frame already queued and hands the lot to the kernel as one vectored
// write (writev), so a burst costs one syscall, not one per frame. A
// frame caught by a write error is lost in transit — the model's message
// loss; the protocols' retransmission keeps fresh copies coming once the
// link is back.
func (mv *mover) writeLoop(l *link) {
	defer mv.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	stop := mv.e.Done()
	backoff := mv.dialMin
	dialed := 0
	batch := make([]outFrame, 0, mv.vecCap)
	vec := make(net.Buffers, 0, mv.vecCap)
	for {
		if conn == nil {
			c, err := mv.dial(l)
			if err != nil {
				select {
				case <-stop:
					return
				case <-time.After(backoff):
				}
				backoff *= 2
				if backoff > mv.dialMax {
					backoff = mv.dialMax
				}
				continue
			}
			conn = c
			backoff = mv.dialMin
			dialed++
			if dialed > 1 {
				mv.e.IO.Redials.Add(1)
			}
		}
		select {
		case <-stop:
			return
		case f := <-l.q:
			batch = append(batch[:0], f)
		drain:
			for len(batch) < cap(batch) {
				select {
				case f2 := <-l.q:
					batch = append(batch, f2)
				default:
					break drain
				}
			}
			vec = vec[:0]
			for _, bf := range batch {
				vec = append(vec, bf.b)
			}
			_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			_, err := (&vec).WriteTo(conn)
			mv.e.IO.SendSyscalls.Add(1)
			// WriteTo consumed the written prefix of vec; what remains (a
			// partially written first frame included) was lost with the
			// connection.
			lost := len(vec)
			for _, bf := range batch {
				fp := bf.b[:0]
				framePool.Put(&fp)
			}
			mv.e.IO.SendFrames.Add(int64(len(batch) - lost))
			if err != nil {
				conn.Close()
				conn = nil
				for _, bf := range batch[len(batch)-lost:] {
					mv.e.SendLost(bf.g, l.peer, core.Message{}, "connection lost")
				}
			}
		}
	}
}

// acceptLoop admits inbound connections and spawns one reader per
// connection. Transient accept errors back off briefly; the loop exits
// when the listener closes at Stop.
func (mv *mover) acceptLoop() {
	defer mv.wg.Done()
	for {
		conn, err := mv.ln.Accept()
		if err != nil {
			select {
			case <-mv.e.Done():
				return
			case <-time.After(5 * time.Millisecond):
				continue
			}
		}
		mv.connMu.Lock()
		if mv.closed { // the node stopped: Close already swept the registry
			mv.connMu.Unlock()
			conn.Close()
			return
		}
		mv.accepted[conn] = struct{}{}
		mv.connMu.Unlock()
		mv.wg.Add(1)
		go mv.readLoop(conn)
	}
}

// errBadHello rejects connections that do not open with a valid
// identification frame.
var errBadHello = errors.New("tcp: invalid hello")

// readHello consumes and validates the identification frame, returning
// the peer index the connection speaks for.
func (mv *mover) readHello(conn net.Conn, src io.Reader, buf []byte) (core.ProcID, error) {
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	gid, msgs, _, err := readFrame(src, buf, nil)
	if err != nil {
		return 0, err
	}
	_ = conn.SetReadDeadline(time.Time{})
	if gid != 0 || len(msgs) != 1 {
		return 0, errBadHello
	}
	m := msgs[0]
	if m.Instance != helloInstance || m.Kind != "HELLO" {
		return 0, errBadHello
	}
	id := core.ProcID(m.B.Num)
	if int64(id) != m.B.Num || int(id) < 0 || int(id) >= len(mv.peerAddrs) || id == mv.self {
		return 0, errBadHello
	}
	if topo := mv.e.Topology(); topo != nil && !topo.HasEdge(id, mv.self) {
		return 0, fmt.Errorf("tcp: peer %d is not a neighbour", id)
	}
	// When the peer's address is configured, the connection must come
	// from that host (ports are ephemeral on the dialing side). A fleet
	// config is therefore also a minimal allowlist; an unwired peer is
	// accepted on its own claim, mirroring UDP's unwired-sender drop in
	// reverse (TCP must accept before it can identify).
	if want := mv.peerAddrs[id]; want != "" {
		wantHost, _, err1 := net.SplitHostPort(want)
		gotHost, _, err2 := net.SplitHostPort(conn.RemoteAddr().String())
		if err1 == nil && err2 == nil {
			wip, gip := net.ParseIP(wantHost), net.ParseIP(gotHost)
			if wip != nil && gip != nil && !wip.IsUnspecified() && !wip.Equal(gip) {
				return 0, fmt.Errorf("tcp: peer %d dialed from %s, configured at %s", id, gotHost, wantHost)
			}
		}
	}
	return id, nil
}

// readFrame reads one length-prefixed frame into buf (growing it as
// needed) and decodes it with the version-dispatching batch decoder: a
// bare v1/v2 frame yields group 0 and one message, a v3 frame its group
// id and records. The returned message slice reuses msgs's capacity and
// never aliases buf (wire.Decode copies all variable-length fields).
func readFrame(r io.Reader, buf []byte, msgs []core.Message) (uint64, []core.Message, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, msgs, buf, err
	}
	sz := binary.BigEndian.Uint32(hdr[:])
	if sz == 0 || sz > maxFrame {
		return 0, msgs, buf, fmt.Errorf("tcp: frame of %d bytes outside (0, %d]", sz, maxFrame)
	}
	if cap(buf) < int(sz) {
		buf = make([]byte, sz)
	}
	buf = buf[:sz]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, msgs, buf, err
	}
	gid, out, err := wire.DecodeBatch(msgs[:0], buf)
	if err != nil {
		// A stream that stops framing valid messages is broken — unlike
		// UDP, where a malformed datagram can be skipped, the connection
		// is the unit of trust here.
		return 0, msgs, buf, err
	}
	return gid, out, buf, nil
}

// countingReader counts socket reads underneath the buffered reader, so
// RecvSyscalls reflects actual kernel round-trips, not frames.
type countingReader struct {
	conn  net.Conn
	calls *atomic.Int64
}

func (r *countingReader) Read(p []byte) (int, error) {
	sz, err := r.conn.Read(p)
	if sz > 0 {
		r.calls.Add(1)
	}
	return sz, err
}

// readLoop hands one connection's frames to the engine as the peer its
// hello named. It exits on any read error — EOF when the peer closes or
// restarts, a local close from Stop — and the dialing side redials.
// Reads go through a buffered reader sized to pull many frames per
// socket read.
func (mv *mover) readLoop(conn net.Conn) {
	defer func() {
		conn.Close()
		mv.connMu.Lock()
		delete(mv.accepted, conn)
		mv.connMu.Unlock()
		mv.wg.Done()
	}()
	src := bufio.NewReaderSize(&countingReader{conn: conn, calls: &mv.e.IO.RecvSyscalls}, 64<<10)
	buf := make([]byte, 0, 4096)
	var msgs []core.Message
	sender, err := mv.readHello(conn, src, buf[:cap(buf)])
	if err != nil {
		return
	}
	for {
		var gid uint64
		gid, msgs, buf, err = readFrame(src, buf[:cap(buf)], msgs)
		if err != nil {
			return
		}
		mv.e.IO.RecvFrames.Add(1)
		kept := msgs[:0]
		for _, m := range msgs {
			if m.Instance != helloInstance { // a duplicate hello is consumed, never delivered
				kept = append(kept, m)
			}
		}
		mv.e.Receive(sender, gid, kept)
	}
}
