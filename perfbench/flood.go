package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync/atomic"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	udp "github.com/snapstab/snapstab/internal/transport/udp"
)

// flood-udp drives the UDP transport's node API directly, as the
// BENCH_0009 harness does: no protocol, only wire encoding, coalescing
// and sendmmsg/recvmmsg. Every delivery is echoed back to its sender.
// A request is one 256 B message and its echo; each ordered pair of
// nodes keeps floodSlots requests in flight and reissues a slot as soon
// as its echo returns, so the flood is a closed loop that holds the
// transport saturated without overrunning it.
const (
	floodN    = 4
	floodBody = 256
	// floodSlots per ordered pair keeps every (sender, instance)
	// mailbox within its default 2×batch = 32 slots: a node holds at most
	// floodSlots requests from a peer plus floodSlots echoes for it.
	floodSlots = 16
	// floodExpire reissues a slot whose echo never came (UDP may lose a
	// datagram); the count is reported as lost.
	floodExpire = time.Second
	floodSetups = 21
	// floodSteadyRounds ends a set-up once every slot has completed this
	// many round trips on average.
	floodSteadyRounds = 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Body layout: [0] hop (0 request, 1 echo), [1] origin, [2:4] slot,
// [4:8] sequence, [8:16] send time, [16:20] CRC-32C of everything else,
// [20:] the run's seeded pattern.
const floodHdr = 20

func seal(b []byte) {
	c := crc32.Update(crc32.Checksum(b[:16], castagnoli), castagnoli, b[floodHdr:])
	binary.LittleEndian.PutUint32(b[16:20], c)
}

// floodNode is the machine each node runs. Step and Deliver run under
// the node's action mutex, so the slots and samples need no lock; the
// counters are read by the sampler.
type floodNode struct {
	self    core.ProcID
	pattern []byte
	epoch   time.Time
	slots   [][floodSlots]floodSlot // by peer
	started bool
	slice   *atomic.Int32 // the window's current slice; -1 outside it
	rtt     *slices       // round-trip times, ms

	delivered, corrupt, completed, lost atomic.Int64
}

type floodSlot struct {
	seq    uint32
	sentAt int64
	busy   bool
}

func (f *floodNode) Instance() string { return "flood" }

func (f *floodNode) now() int64 { return int64(time.Since(f.epoch)) }

// issue sends a fresh request in slot s toward peer, reusing buf when
// it is a received body (decoded bodies are the receiver's own copy).
func (f *floodNode) issue(env core.Env, peer, s int, buf []byte) {
	if buf == nil {
		buf = make([]byte, floodBody)
		copy(buf[floodHdr:], f.pattern)
	}
	sl := &f.slots[peer][s]
	sl.seq++
	sl.sentAt = f.now()
	sl.busy = true
	buf[0], buf[1] = 0, byte(f.self)
	binary.LittleEndian.PutUint16(buf[2:], uint16(s))
	binary.LittleEndian.PutUint32(buf[4:], sl.seq)
	binary.LittleEndian.PutUint64(buf[8:], uint64(sl.sentAt))
	seal(buf)
	env.Send(core.ProcID(peer), core.Message{Instance: "flood", Kind: "flood", B: core.Payload{Blob: buf}})
}

// Step fills every slot on the first activation and afterwards reissues
// the slots whose echo is overdue.
func (f *floodNode) Step(env core.Env) bool {
	now := f.now()
	for peer := range f.slots {
		if peer == int(f.self) {
			continue
		}
		for s := range f.slots[peer] {
			sl := &f.slots[peer][s]
			if !f.started {
				f.issue(env, peer, s, nil)
			} else if sl.busy && time.Duration(now-sl.sentAt) > floodExpire {
				f.lost.Add(1)
				f.issue(env, peer, s, nil)
			}
		}
	}
	f.started = true
	return true
}

func (f *floodNode) intact(b []byte) bool {
	if len(b) != floodBody || !bytes.Equal(b[floodHdr:], f.pattern) {
		return false
	}
	c := crc32.Update(crc32.Checksum(b[:16], castagnoli), castagnoli, b[floodHdr:])
	return binary.LittleEndian.Uint32(b[16:20]) == c && b[0] <= 1 && int(b[1]) < floodN
}

func (f *floodNode) Deliver(env core.Env, from core.ProcID, m core.Message) {
	f.delivered.Add(1)
	b := m.B.Blob
	if !f.intact(b) {
		f.corrupt.Add(1)
		return
	}
	if b[0] == 0 { // a peer's request: echo it
		b[0] = 1
		seal(b)
		env.Send(from, core.Message{Instance: "flood", Kind: "flood", B: core.Payload{Blob: b}})
		return
	}
	s := int(binary.LittleEndian.Uint16(b[2:]))
	if core.ProcID(b[1]) != f.self || s >= floodSlots {
		f.corrupt.Add(1)
		return
	}
	sl := &f.slots[from][s]
	if !sl.busy || sl.seq != binary.LittleEndian.Uint32(b[4:]) {
		return // the echo of a request already reissued as lost
	}
	rtt := f.now() - sl.sentAt
	f.completed.Add(1)
	if k := f.slice.Load(); k >= 0 && k < subWindows {
		f.rtt[k].add(float64(rtt) / 1e6)
	}
	f.issue(env, int(from), s, b)
}

// floodRig is one running flood.
type floodRig struct {
	nodes    []*udp.Node
	machines []*floodNode
	slice    atomic.Int32
}

func (r *floodRig) stop() {
	for _, n := range r.nodes {
		n.Stop()
	}
}

func (r *floodRig) sum(get func(*floodNode) *atomic.Int64) int64 {
	var t int64
	for _, m := range r.machines {
		t += get(m).Load()
	}
	return t
}

// startFlood binds and wires the nodes, starts them, and returns once
// the flood is steady.
func startFlood(seed uint64, traced bool) (*floodRig, time.Duration, error) {
	t0 := time.Now()
	r := &floodRig{}
	r.slice.Store(-1)
	pattern := make([]byte, floodBody-floodHdr)
	fill(pattern, mix(seed, 0xf1))
	addrs := make([]string, floodN)
	for i := 0; i < floodN; i++ {
		m := &floodNode{self: core.ProcID(i), pattern: pattern, epoch: t0, slots: make([][floodSlots]floodSlot, floodN), slice: &r.slice, rtt: newSlices(mix(seed, uint64(i)))}
		var opts []udp.Option
		if traced {
			// The flood has no request spans; the traced half installs an
			// observer, as WithEventHook does on the clusters, so that
			// trace.overhead_ms prices the event stream.
			opts = append(opts, udp.WithObserver(core.ObserverFunc(func(core.Event) {})))
		}
		node, err := udp.NewNode(core.ProcID(i), core.Stack{m}, "127.0.0.1:0", make([]string, floodN), opts...)
		if err != nil {
			r.stop()
			return nil, 0, fmt.Errorf("flood: bind node %d: %w", i, err)
		}
		r.nodes = append(r.nodes, node)
		r.machines = append(r.machines, m)
		addrs[i] = node.Addr()
	}
	for i, node := range r.nodes {
		for j, a := range addrs {
			if i == j {
				continue
			}
			peer, err := net.ResolveUDPAddr("udp", a)
			if err != nil {
				r.stop()
				return nil, 0, fmt.Errorf("flood: resolve %q: %w", a, err)
			}
			node.SetPeer(core.ProcID(j), peer)
		}
	}
	for _, node := range r.nodes {
		node.Start()
	}
	steady := int64(floodSteadyRounds * floodN * (floodN - 1) * floodSlots)
	deadline := time.Now().Add(10 * time.Second)
	for r.sum(func(m *floodNode) *atomic.Int64 { return &m.completed }) < steady {
		if time.Now().After(deadline) {
			r.stop()
			return nil, 0, fmt.Errorf("flood: not steady after 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return r, time.Since(t0), nil
}

// floodSnap is every flood counter read at one window edge.
type floodSnap struct {
	cpu                                 time.Duration
	delivered, corrupt, completed, lost int64
	ts                                  xport
}

func (r *floodRig) snapshot() floodSnap {
	s := floodSnap{
		cpu:       cpuTime(),
		delivered: r.sum(func(m *floodNode) *atomic.Int64 { return &m.delivered }),
		corrupt:   r.sum(func(m *floodNode) *atomic.Int64 { return &m.corrupt }),
		completed: r.sum(func(m *floodNode) *atomic.Int64 { return &m.completed }),
		lost:      r.sum(func(m *floodNode) *atomic.Int64 { return &m.lost }),
	}
	for _, n := range r.nodes {
		st := n.Stats()
		s.ts.sends += st.Sends
		s.ts.recvs += st.Recvs
		s.ts.sendDrops += st.SendDrops
		s.ts.mailboxDrops += st.MailboxDrops
		s.ts.frames += st.SendDatagrams
		s.ts.sendSyscalls += st.SendSyscalls
		s.ts.recvSyscalls += st.RecvSyscalls
	}
	return s
}

// floodPhase is one measured window on a running flood.
type floodPhase struct {
	before, after floodSnap
	subs          []subWindow
}

// measureFlood measures one window on a running flood, reading the
// counters at every slice edge, then stops the flood.
func measureFlood(r *floodRig, window time.Duration) floodPhase {
	ph := floodPhase{subs: make([]subWindow, subWindows)}
	ph.before = r.snapshot()
	start := time.Now()
	r.slice.Store(0)
	prev := ph.before
	walkWindow(start, window, func(k int, dur time.Duration) {
		r.slice.Store(int32(k + 1))
		cur := r.snapshot()
		ph.subs[k] = subWindow{dur: dur, cpu: cur.cpu - prev.cpu, heapMB: liveHeapMB(), done: cur.completed - prev.completed}
		prev = cur
	})
	ph.after = prev
	r.stop() // waits for the node loops, so the samples are ours now
	for _, m := range r.machines {
		for k := range m.rtt {
			ph.subs[k].lat = append(ph.subs[k].lat, m.rtt[k].vals...)
		}
	}
	return ph
}

func runFloodUDP(cfg config) (*outcome, error) {
	out := &outcome{}
	extra := floodSetups - 1
	if cfg.trace {
		extra = 0
	}
	throwaway := func() (func(), time.Duration, error) {
		r, d, err := startFlood(cfg.seed, false)
		if err != nil {
			return nil, 0, err
		}
		return r.stop, d, nil
	}
	setupS, err := throwawaySetups(extra/2, throwaway)
	if err != nil {
		return nil, err
	}
	r, d, err := startFlood(cfg.seed, false)
	if err != nil {
		return nil, err
	}
	setupS = append(setupS, d.Seconds())
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	ph := measureFlood(r, window)
	after, err := throwawaySetups(extra-extra/2, throwaway)
	if err != nil {
		return nil, err
	}
	setupS = append(setupS, after...)
	floodAccount(out, ph)
	b, a := ph.before, ph.after
	sm := summarize(ph.subs)
	requestMetrics(out, sm, pooled(ph.subs), setupS)
	delivered := a.delivered - b.delivered
	out.extra = append(out.extra,
		metric{"msgs_per_s", float64(delivered) / window.Seconds(), "1/s"},
		metric{"cpu_ns_per_msg", ratio(float64(a.cpu-b.cpu), float64(delivered)), "ns"},
		metric{"msgs_per_req", perReq(b.ts.sends, a.ts.sends, a.completed-b.completed), "count"},
		metric{"lost_reqs", float64(a.lost - b.lost), "count"},
	)
	if !cfg.trace {
		return out, nil
	}

	tr, _, err := startFlood(cfg.seed, true)
	if err != nil {
		return nil, err
	}
	tp := measureFlood(tr, window)
	floodAccount(out, tp)
	tb, ta := tp.before, tp.after
	vals := map[string]float64{"trace.overhead_ms": summarize(tp.subs).p50 - sm.p50}
	transportLayers(vals, "udp", tb.ts, ta.ts)
	wireLayers(out, vals, floodShape(cfg.seed))
	out.layers = layerList(vals)
	return out, nil
}

func floodAccount(out *outcome, ph floodPhase) {
	delivered := ph.after.delivered - ph.before.delivered
	corrupt := ph.after.corrupt - ph.before.corrupt
	out.attempted += delivered
	out.failed += corrupt
	if corrupt > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of %d flood deliveries had a damaged body", corrupt, delivered))
	}
}

// floodShape is a full batch of flood messages.
func floodShape(seed uint64) []core.Message {
	msgs := make([]core.Message, udp.DefaultBatch)
	for i := range msgs {
		b := make([]byte, floodBody)
		fill(b[floodHdr:], mix(seed, 0xf1))
		binary.LittleEndian.PutUint32(b[4:], uint32(i))
		seal(b)
		msgs[i] = core.Message{Instance: "flood", Kind: "flood", B: core.Payload{Blob: b}}
	}
	return msgs
}
