package udp

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/idl"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// cluster spins up n nodes on loopback with OS-assigned ports. Each
// process's stack is produced by mk once the port layout is known.
func cluster(t *testing.T, n int, mk func(self core.ProcID) core.Stack) []*Node {
	t.Helper()
	// First bind placeholder nodes to learn ports: bind real nodes in two
	// phases instead — phase 1 reserves addresses.
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	// Reserve ports by binding, then rebuild the peer lists.
	for i := 0; i < n; i++ {
		node, err := NewNode(core.ProcID(i), mk(core.ProcID(i)), "127.0.0.1:0", make([]string, n))
		if err != nil {
			t.Fatalf("bind node %d: %v", i, err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	// Fill in the real peer addresses now that all ports are known.
	for i, node := range nodes {
		for j, a := range addrs {
			if i == j {
				continue
			}
			peer, err := net.ResolveUDPAddr("udp", a)
			if err != nil {
				t.Fatalf("parse %q: %v", a, err)
			}
			node.SetPeer(core.ProcID(j), peer)
		}
	}
	for _, node := range nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Stop()
		}
	})
	return nodes
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

func TestPIFOverLoopbackUDP(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 3
	machines := make([]*pif.PIF, n)
	nodes := cluster(t, n, func(self core.ProcID) core.Stack {
		m := pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(DefaultAssumedCapacity))
		machines[self] = m
		return core.Stack{m}
	})

	token := core.Payload{Tag: "hello", Num: 4}
	nodes[0].Do(func(env core.Env) {
		if !machines[0].Invoke(env, token) {
			t.Error("Invoke rejected")
		}
	})
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		nodes[0].Do(func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatal("broadcast over real UDP did not complete")
	}
}

func TestPIFOverUDPFromCorruptedState(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 2
	machines := make([]*pif.PIF, n)
	r := rng.New(7)
	nodes := cluster(t, n, func(self core.ProcID) core.Stack {
		m := pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(DefaultAssumedCapacity))
		m.Corrupt(r)
		machines[self] = m
		return core.Stack{m}
	})

	token := core.Payload{Tag: "fresh", Num: 3}
	invoked := waitFor(t, 20*time.Second, func() bool {
		var ok bool
		nodes[0].Do(func(env core.Env) { ok = machines[0].Invoke(env, token) })
		return ok
	})
	if !invoked {
		t.Fatal("corrupted computation never terminated")
	}
	var feedback core.Payload
	nodes[0].Do(func(core.Env) {
		cb := machines[0].Callbacks()
		cb.OnFeedback = func(_ core.Env, _ core.ProcID, f core.Payload) { feedback = f }
		machines[0].SetCallbacks(cb)
	})
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		nodes[0].Do(func(core.Env) { done = machines[0].Done() && machines[0].BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatal("requested broadcast did not complete over UDP")
	}
	want := core.Payload{Tag: "ack", Num: token.Num*10 + 1}
	if !feedback.Equal(want) {
		t.Fatalf("decided on feedback %v, want %v", feedback, want)
	}
}

func TestIDLOverUDP(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	const n = 3
	ids := []int64{30, 10, 20}
	machines := make([]*idl.IDL, n)
	nodes := cluster(t, n, func(self core.ProcID) core.Stack {
		d := idl.New("idl", self, n, ids[self], pif.WithCapacityBound(DefaultAssumedCapacity))
		machines[self] = d
		return d.Machines()
	})
	nodes[0].Do(func(env core.Env) { machines[0].Invoke(env) })
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		nodes[0].Do(func(core.Env) { done = machines[0].Done() })
		return done
	})
	if !ok {
		t.Fatal("IDs-Learning over UDP did not complete")
	}
	nodes[0].Do(func(core.Env) {
		if machines[0].MinID != 10 || machines[0].IDTab[1] != 10 || machines[0].IDTab[2] != 20 {
			t.Errorf("MinID=%d IDTab=%v", machines[0].MinID, machines[0].IDTab)
		}
	})
}

func TestMailboxBoundsBacklog(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path and
	// the timer wheel; interference slows the handshakes by >20x.
	// A node whose activation loop is frozen holds at most one swapped-out
	// batch plus one full mailbox per (sender, instance); everything
	// beyond is dropped on arrival.
	const slots = 4
	mk := func(self core.ProcID) core.Stack {
		return core.Stack{pif.New("pif", self, 2, pif.Callbacks{}, pif.WithCapacityBound(DefaultAssumedCapacity))}
	}
	recv, err := NewNode(1, mk(1), "127.0.0.1:0", make([]string, 2), withMailbox(slots))
	if err != nil {
		t.Fatal(err)
	}
	send, err := NewNode(0, mk(0), "127.0.0.1:0", make([]string, 2))
	if err != nil {
		t.Fatal(err)
	}
	send.SetPeer(1, mustUDPAddr(t, recv.Addr()))
	recv.SetPeer(0, mustUDPAddr(t, send.Addr()))
	recv.Start() // the sender's loops stay off: Do drives its socket directly
	t.Cleanup(func() { recv.Stop(); send.Stop() })

	// Freeze the receiver's activation loop by holding its action mutex
	// while the sender floods it.
	release := make(chan struct{})
	frozen := make(chan struct{})
	go func() {
		recv.Do(func(core.Env) {
			close(frozen)
			<-release
		})
	}()
	<-frozen
	defer close(release)
	const flood = 100
	send.Do(func(env core.Env) {
		for i := 0; i < flood; i++ {
			env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
		}
	})
	if !waitFor(t, 5*time.Second, func() bool {
		s := recv.Stats()
		return s.Recvs+s.MailboxDrops == flood
	}) {
		s := recv.Stats()
		t.Fatalf("%d of %d messages arrived (Recvs %d, MailboxDrops %d)", s.Recvs+s.MailboxDrops, flood, s.Recvs, s.MailboxDrops)
	}
	if s := recv.Stats(); s.Recvs > 2*slots {
		t.Fatalf("frozen receiver boxed %d messages, above the bound %d", s.Recvs, 2*slots)
	}
}

func TestStatsCountSendsAndDrops(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	const n = 2
	machines := make([]*pif.PIF, n)
	nodes := cluster(t, n, func(self core.ProcID) core.Stack {
		m := pif.New("pif", self, n, pif.Callbacks{}, pif.WithCapacityBound(DefaultAssumedCapacity))
		machines[self] = m
		return core.Stack{m}
	})
	nodes[0].Do(func(env core.Env) {
		env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
	})
	if got := nodes[0].Stats().Sends; got < 1 {
		t.Fatalf("Sends = %d after a successful send, want >= 1", got)
	}
	if got := nodes[0].Stats().SendDrops; got != 0 {
		t.Fatalf("SendDrops = %d on a healthy socket, want 0", got)
	}
}

func TestStatsCountDroppedSends(t *testing.T) {
	t.Parallel()
	stack := core.Stack{pif.New("pif", 0, 2, pif.Callbacks{})}
	node, err := NewNode(0, stack, "127.0.0.1:0", []string{"", "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	// Stop closes the socket (the loops were never started), so every
	// subsequent WriteToUDP fails: the silent-swallow path of env.Send.
	node.Stop()
	const attempts = 3
	node.Do(func(env core.Env) {
		for i := 0; i < attempts; i++ {
			env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
		}
	})
	s := node.Stats()
	if s.SendDrops != attempts {
		t.Fatalf("SendDrops = %d, want %d", s.SendDrops, attempts)
	}
	if s.Sends != 0 {
		t.Fatalf("Sends = %d on a closed socket, want 0", s.Sends)
	}
}

func TestStatsCountMailboxDrops(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	// A receiver with a 1-slot mailbox whose activation loop is frozen
	// (its action mutex is held) must count every overflowing datagram —
	// and report each as a receive-side EvLose, never as the sender-side
	// EvSendLost.
	mk := func(self core.ProcID) core.Stack {
		return core.Stack{pif.New("pif", self, 2, pif.Callbacks{}, pif.WithCapacityBound(DefaultAssumedCapacity))}
	}
	var losses, sendLost atomic.Int64
	recv, err := NewNode(1, mk(1), "127.0.0.1:0", make([]string, 2),
		withMailbox(1), WithObserver(core.ObserverFunc(func(e core.Event) {
			switch e.Kind {
			case core.EvLose:
				losses.Add(1)
			case core.EvSendLost:
				sendLost.Add(1)
			}
		})))
	if err != nil {
		t.Fatal(err)
	}
	send, err := NewNode(0, mk(0), "127.0.0.1:0", make([]string, 2))
	if err != nil {
		t.Fatal(err)
	}
	recvAddr, err := net.ResolveUDPAddr("udp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sendAddr, err := net.ResolveUDPAddr("udp", send.Addr())
	if err != nil {
		t.Fatal(err)
	}
	send.SetPeer(1, recvAddr)
	recv.SetPeer(0, sendAddr)
	recv.Start() // the sender's loops stay off: Do drives its socket directly
	t.Cleanup(func() { recv.Stop(); send.Stop() })

	// Freeze the receiver's activation loop by holding its action mutex:
	// drains stop, but the receive loop keeps boxing (and dropping).
	release := make(chan struct{})
	frozen := make(chan struct{})
	go func() {
		recv.Do(func(core.Env) {
			close(frozen)
			<-release
		})
	}()
	<-frozen
	defer close(release)

	send.Do(func(env core.Env) {
		for i := 0; i < 50; i++ {
			env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
		}
	})
	if !waitFor(t, 5*time.Second, func() bool { return recv.Stats().MailboxDrops > 0 }) {
		t.Fatal("flooding a 1-slot mailbox on a frozen receiver produced no MailboxDrops")
	}
	if losses.Load() == 0 {
		t.Fatal("mailbox-full drops emitted no EvLose events")
	}
	if got := sendLost.Load(); got != 0 {
		t.Fatalf("mailbox-full drops emitted %d EvSendLost events; receive-side loss must be EvLose", got)
	}
}

// withMailbox overrides the per-(group, sender, instance) mailbox size.
func withMailbox(slots int) Option {
	return func(o *engine.Options) { o.Mailbox = slots }
}

// TestGarbageFromKnownPeerIsQuarantined fires truncated frames, a frame
// for a group this node does not host, and raw noise from a known peer's
// address: none may surface, and a valid frame sent after them still
// arrives alone.
func TestGarbageFromKnownPeerIsQuarantined(t *testing.T) {
	// Not parallel: shares the loopback path with the cluster tests.
	node, rec, raw := rawPeer(t)
	valid, err := wire.AppendBatch(nil, 0, []core.Message{{Instance: "rec", Kind: "K", B: core.Payload{Num: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	truncated := valid[:len(valid)-1]
	stray, err := wire.AppendBatch(nil, 9999, []core.Message{{Instance: "rec", Kind: "K"}})
	if err != nil {
		t.Fatal(err)
	}
	target := mustUDPAddr(t, node.Addr())
	for i := 0; i < 20; i++ {
		for _, d := range [][]byte{truncated, stray, {0x53, 0x4e, 3, 0xFF}, {1, 2, 3}} {
			if _, err := raw.WriteToUDP(d, target); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := raw.WriteToUDP(valid, target); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return len(rec.snapshot()) > 0 }) {
		t.Fatal("the valid frame after the garbage was not delivered")
	}
	time.Sleep(20 * time.Millisecond) // let any straggler surface
	if got := rec.snapshot(); len(got) != 1 || got[0].B.Num != 1 {
		t.Fatalf("delivered %v, want only the valid message", got)
	}
}
