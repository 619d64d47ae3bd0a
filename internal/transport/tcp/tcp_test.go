package tcp

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/rng"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/wire"
)

// mkPIF builds one process's PIF stack, recording the machine.
func mkPIF(machines []*pif.PIF, self core.ProcID, n int) core.Stack {
	m := pif.New("pif", self, n, pif.Callbacks{
		OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
			return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
		},
	}, pif.WithCapacityBound(DefaultAssumedCapacity))
	machines[self] = m
	return core.Stack{m}
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

// withDialBackoff overrides the redial backoff range.
func withDialBackoff(min, max time.Duration) Option {
	return func(o *engine.Options) { o.DialMin, o.DialMax = min, max }
}

// at0 adapts process 0 of a cluster to broadcastDone.
type at0 struct{ c *Cluster }

func (a at0) Do(f func(core.Env)) { a.c.Do(0, f) }

// broadcastDone drives a broadcast at node and waits for its PIF
// handshake to complete with the token.
func broadcastDone(t *testing.T, node interface{ Do(func(core.Env)) }, m *pif.PIF, token core.Payload) {
	t.Helper()
	invoked := waitFor(t, 20*time.Second, func() bool {
		var ok bool
		node.Do(func(env core.Env) { ok = m.Invoke(env, token) })
		return ok
	})
	if !invoked {
		t.Fatal("Invoke never accepted (prior computation never terminated)")
	}
	ok := waitFor(t, 20*time.Second, func() bool {
		var done bool
		node.Do(func(core.Env) { done = m.Done() && m.BMes.Equal(token) })
		return done
	})
	if !ok {
		t.Fatal("broadcast over TCP did not complete")
	}
}

func TestPIFOverLoopbackTCP(t *testing.T) {
	// Not parallel: concurrent clusters share the loopback path; the
	// interference slows the handshakes.
	const n = 3
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), n)
	}
	c, err := NewCluster(stacks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	broadcastDone(t, at0{c}, machines[0], core.Payload{Tag: "hello", Num: 4})
	for i, s := range c.TransportStats() {
		if s.Sends == 0 {
			t.Errorf("node %d accepted no sends", i)
		}
		if s.Recvs == 0 {
			t.Errorf("node %d boxed no frames", i)
		}
	}
}

func TestPIFOverTCPFromCorruptedState(t *testing.T) {
	// Not parallel: shares the loopback path.
	const n = 2
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	r := rng.New(7)
	for i := 0; i < n; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), n)
		machines[i].Corrupt(r)
	}
	c, err := NewCluster(stacks)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	broadcastDone(t, at0{c}, machines[0], core.Payload{Tag: "fresh", Num: 3})
}

// TestSimultaneousStartDialRace releases every node's Start from a
// barrier so all writers dial while all listeners are barely up, the
// worst-case connection race: the handshake must still complete.
func TestSimultaneousStartDialRace(t *testing.T) {
	// Not parallel: shares the loopback path.
	const n = 3
	machines := make([]*pif.PIF, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(core.ProcID(i), mkPIF(machines, core.ProcID(i), n), "127.0.0.1:0", make([]string, n),
			withDialBackoff(time.Millisecond, 50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for i, node := range nodes {
		for j, other := range nodes {
			if i != j {
				node.SetPeer(core.ProcID(j), other.Addr())
			}
		}
	}
	var barrier, started sync.WaitGroup
	barrier.Add(1)
	for _, node := range nodes {
		node := node
		started.Add(1)
		go func() {
			barrier.Wait()
			node.Start()
			started.Done()
		}()
	}
	barrier.Done()
	started.Wait()
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Stop()
		}
	})
	broadcastDone(t, nodes[0], machines[0], core.Payload{Tag: "race", Num: 9})
}

// TestRedialAfterPeerRestart kills one node, rebinds a fresh node (fresh
// protocol state) on the same address, and requires a broadcast to
// complete afterwards with the survivor's redial counter advanced: a
// peer's crash-and-restart is absorbed as message loss plus a redial.
func TestRedialAfterPeerRestart(t *testing.T) {
	// Not parallel: shares the loopback path, and rebinds a fixed port.
	const n = 2
	machines := make([]*pif.PIF, n)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := NewNode(core.ProcID(i), mkPIF(machines, core.ProcID(i), n), "127.0.0.1:0", make([]string, n),
			withDialBackoff(time.Millisecond, 50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	addr1 := nodes[1].Addr()
	nodes[0].SetPeer(1, addr1)
	nodes[1].SetPeer(0, nodes[0].Addr())
	nodes[0].Start()
	nodes[1].Start()
	t.Cleanup(func() { nodes[0].Stop(); nodes[1].Stop() })

	broadcastDone(t, nodes[0], machines[0], core.Payload{Tag: "before", Num: 1})

	nodes[1].Stop()
	// Rebind the same port. The listener was closed, not left in
	// TIME_WAIT, so the bind should succeed promptly; retry briefly in
	// case the kernel lags.
	var restarted *Node
	deadline := time.Now().Add(5 * time.Second)
	for {
		node, err := NewNode(1, mkPIF(machines, 1, n), addr1, make([]string, n),
			withDialBackoff(time.Millisecond, 50*time.Millisecond))
		if err == nil {
			restarted = node
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr1, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	restarted.SetPeer(0, nodes[0].Addr())
	restarted.Start()
	t.Cleanup(restarted.Stop)

	broadcastDone(t, nodes[0], machines[0], core.Payload{Tag: "after", Num: 2})
	if got := nodes[0].Stats().Redials; got == 0 {
		t.Fatalf("Redials = %d after a peer restart, want > 0", got)
	}
}

// TestHalfOpenConnectionsDoNotWedge connects raw sockets that go silent
// after (a) a valid hello and (b) garbage, and verifies the node keeps
// serving protocol traffic and that Stop returns promptly with the
// half-open connections still registered.
func TestHalfOpenConnectionsDoNotWedge(t *testing.T) {
	// Not parallel: shares the loopback path.
	const n = 3
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), n)
	}
	c, err := NewCluster(stacks)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()

	// A liar claiming to be process 1 (a real peer), then silence: the
	// reader blocks on the next frame forever.
	liar, err := net.Dial("tcp", c.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer liar.Close()
	hello := []byte{0, 0, 0, 0}
	hello, err = wire.AppendEncode(hello, core.Message{
		Instance: helloInstance, Kind: "HELLO", B: core.Payload{Num: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(hello[:4], uint32(len(hello)-4))
	if _, err := liar.Write(hello); err != nil {
		t.Fatal(err)
	}

	// A babbler: a length prefix promising more than maxFrame, which the
	// reader must reject without allocating it.
	babbler, err := net.Dial("tcp", c.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer babbler.Close()
	if _, err := babbler.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}

	// The node still serves real traffic around both.
	broadcastDone(t, at0{c}, machines[0], core.Payload{Tag: "alive", Num: 6})

	// Stop must unblock the half-open readers and return promptly.
	done := make(chan struct{})
	go func() { c.Close(); close(done) }()
	select {
	case <-done:
		closed = true
	case <-time.After(10 * time.Second):
		t.Fatal("Close wedged on half-open connections")
	}
}

func TestStopIdempotent(t *testing.T) {
	t.Parallel()
	machines := make([]*pif.PIF, 2)
	node, err := NewNode(0, mkPIF(machines, 0, 2), "127.0.0.1:0", make([]string, 2))
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	node.Stop()
	node.Stop() // second Stop must be a no-op, not a panic or deadlock

	stacks := make([]core.Stack, 2)
	for i := 0; i < 2; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), 2)
	}
	c, err := NewCluster(stacks)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		stacks[i] = mkPIF(machines, core.ProcID(i), 2)
	}
	h, err := NewHost(HostConfig{Self: 0, Peers: make([]string, 2)}, stacks)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSendAfterStopCountsDrops pins the silent-swallow path: sends on a
// stopped node land in SendDrops, never block, never panic.
func TestSendAfterStopCountsDrops(t *testing.T) {
	t.Parallel()
	machines := make([]*pif.PIF, 2)
	node, err := NewNode(0, mkPIF(machines, 0, 2), "127.0.0.1:0", []string{"", "127.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	node.Start()
	node.Stop()
	const attempts = 3
	node.Do(func(env core.Env) {
		for i := 0; i < attempts; i++ {
			env.Send(1, core.Message{Instance: "pif", Kind: pif.Kind})
		}
	})
	// The writer may have died before or after taking frames off the
	// queue; either way nothing may be counted as both sent and dropped.
	s := node.Stats()
	if s.Sends+s.SendDrops != attempts {
		t.Fatalf("Sends (%d) + SendDrops (%d) = %d, want %d", s.Sends, s.SendDrops, s.Sends+s.SendDrops, attempts)
	}
}

// TestHostValidation: the daemon substrate rejects impossible fleet
// layouts, and the backoff range must be ordered.
func TestHostValidation(t *testing.T) {
	t.Parallel()
	machines := make([]*pif.PIF, 2)
	stack := mkPIF(machines, 0, 2)
	if _, err := NewNode(0, stack, "127.0.0.1:0", make([]string, 2), withDialBackoff(time.Second, time.Millisecond)); err == nil {
		t.Fatal("inverted backoff accepted")
	}
	if _, err := NewHost(HostConfig{Self: 7, Peers: make([]string, 2)}, []core.Stack{stack, stack}); err == nil {
		t.Fatal("out-of-range host self accepted")
	}
	if _, err := NewHost(HostConfig{Self: 0, Peers: make([]string, 3)}, []core.Stack{stack, stack}); err == nil {
		t.Fatal("mismatched peer list accepted")
	}
}
