package engine_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/transport/engine"
	"github.com/snapstab/snapstab/internal/transport/tcp"
	"github.com/snapstab/snapstab/internal/transport/udp"
)

// transport is one mover under the shared suite: how to build its
// clusters, muxes, and nodes through its own package API.
type transport struct {
	name     string
	capacity int
	cluster  func(stacks []core.Stack) (*engine.Cluster, error)
	mux      func(n int) (*mux, error)
	node     func(self core.ProcID, peers []string) error // bind and stop one node
	// badPeers is a peer list NewNode must reject (nil: the mover
	// resolves peer addresses only when it dials).
	badPeers []string
}

// mux is a transport's Mux seen through mover-independent closures.
type mux struct {
	close  func() error
	attach func(stacks []core.Stack, plan *core.FaultPlan) (*engine.MuxCluster, error)
	// nodeLevel attaches with each node-level option, which must fail.
	nodeLevel map[string]func(stacks []core.Stack) error
}

var transports = []transport{
	{
		name:     "udp",
		capacity: udp.DefaultAssumedCapacity,
		cluster:  func(stacks []core.Stack) (*engine.Cluster, error) { return udp.NewCluster(stacks) },
		mux: func(n int) (*mux, error) {
			m, err := udp.NewMux(n)
			if err != nil {
				return nil, err
			}
			return &mux{
				close: m.Close,
				attach: func(stacks []core.Stack, plan *core.FaultPlan) (*engine.MuxCluster, error) {
					if plan != nil {
						return m.Attach(stacks, udp.WithFaults(plan))
					}
					return m.Attach(stacks)
				},
				nodeLevel: map[string]func([]core.Stack) error{
					"WithBatch": func(s []core.Stack) error { _, err := m.Attach(s, udp.WithBatch(4)); return err },
				},
			}, nil
		},
		node: func(self core.ProcID, peers []string) error {
			node, err := udp.NewNode(self, core.Stack{idle{}}, "127.0.0.1:0", peers)
			if err == nil {
				node.Stop()
			}
			return err
		},
		badPeers: []string{"", "not-an-addr:xx"},
	},
	{
		name:     "tcp",
		capacity: tcp.DefaultAssumedCapacity,
		cluster:  func(stacks []core.Stack) (*engine.Cluster, error) { return tcp.NewCluster(stacks) },
		mux: func(n int) (*mux, error) {
			m, err := tcp.NewMux(n)
			if err != nil {
				return nil, err
			}
			return &mux{
				close: m.Close,
				attach: func(stacks []core.Stack, plan *core.FaultPlan) (*engine.MuxCluster, error) {
					if plan != nil {
						return m.Attach(stacks, tcp.WithFaults(plan))
					}
					return m.Attach(stacks)
				},
				nodeLevel: map[string]func([]core.Stack) error{
					"WithBatch": func(s []core.Stack) error { _, err := m.Attach(s, tcp.WithBatch(4)); return err },
				},
			}, nil
		},
		node: func(self core.ProcID, peers []string) error {
			node, err := tcp.NewNode(self, core.Stack{idle{}}, "127.0.0.1:0", peers)
			if err == nil {
				node.Stop()
			}
			return err
		},
	},
}

// forEach runs body once per mover. Socket tests are not parallel:
// concurrent clusters share the loopback path and the timer wheel, and
// the interference slows the handshakes by >20x.
func forEach(t *testing.T, body func(t *testing.T, tr transport)) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) { body(t, tr) })
	}
}

// idle is a machine that never acts: the waiter tests control every
// state change themselves.
type idle struct{}

func (idle) Instance() string                            { return "idle" }
func (idle) Step(core.Env) bool                          { return false }
func (idle) Deliver(core.Env, core.ProcID, core.Message) {}

func idleStacks(n int) []core.Stack {
	stacks := make([]core.Stack, n)
	for i := range stacks {
		stacks[i] = core.Stack{idle{}}
	}
	return stacks
}

// pifStacks builds one PIF stack per process.
func pifStacks(n, capacity int) ([]core.Stack, []*pif.PIF) {
	machines := make([]*pif.PIF, n)
	stacks := make([]core.Stack, n)
	for i := 0; i < n; i++ {
		self := core.ProcID(i)
		machines[i] = pif.New("pif", self, n, pif.Callbacks{
			OnBroadcast: func(_ core.Env, _ core.ProcID, b core.Payload) core.Payload {
				return core.Payload{Tag: "ack", Num: b.Num*10 + int64(self)}
			},
		}, pif.WithCapacityBound(capacity))
		stacks[i] = core.Stack{machines[i]}
	}
	return stacks, machines
}

// broadcast requests a PIF broadcast of token at process 0 and awaits
// its decision through the substrate's notification-driven Await.
func broadcast(t *testing.T, sub core.Substrate, m *pif.PIF, token core.Payload) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	invoked := false
	err := sub.Await(ctx, 0, func(env core.Env) bool {
		if !invoked {
			invoked = m.Invoke(env, token)
			return false
		}
		return m.Done() && m.BMes.Equal(token)
	})
	if err != nil {
		t.Fatalf("broadcast %v did not complete: %v", token, err)
	}
}

func newMux(t *testing.T, tr transport, n int) *mux {
	t.Helper()
	m, err := tr.mux(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.close() })
	return m
}

func attach(t *testing.T, m *mux, stacks []core.Stack, plan *core.FaultPlan) *engine.MuxCluster {
	t.Helper()
	c, err := m.attach(stacks, plan)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMuxHostsIndependentClusters runs two PIF clusters over one socket
// set per process and checks both complete with their own tokens: group
// routing works over the shared sockets, each cluster counts its own
// messages, and the socket-level frame counter is common to both views.
func TestMuxHostsIndependentClusters(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport) {
		const n = 3
		m := newMux(t, tr, n)
		stacksA, machA := pifStacks(n, tr.capacity)
		stacksB, machB := pifStacks(n, tr.capacity)
		ca := attach(t, m, stacksA, nil)
		cb := attach(t, m, stacksB, nil)
		if ca.Group() == cb.Group() || ca.Group() == 0 {
			t.Fatalf("group ids %d and %d must be distinct and nonzero", ca.Group(), cb.Group())
		}
		broadcast(t, ca, machA[0], core.Payload{Tag: "a", Num: 1})
		broadcast(t, cb, machB[0], core.Payload{Tag: "b", Num: 2})

		sa, sb := ca.TransportStats(), cb.TransportStats()
		if sa[0].Sends == 0 || sb[0].Sends == 0 {
			t.Fatalf("per-cluster Sends: a=%d b=%d, want both > 0", sa[0].Sends, sb[0].Sends)
		}
		if sa[0].SendDatagrams == 0 || sa[0].SendDatagrams != sb[0].SendDatagrams {
			t.Fatalf("socket-level SendDatagrams differ across views: a=%d b=%d", sa[0].SendDatagrams, sb[0].SendDatagrams)
		}
	})
}

// TestMuxFaultIsolation: cluster A runs under an aggressive
// corruption/drop plan while cluster B runs clean on the same sockets.
// Both complete, and B sees no injected fault.
func TestMuxFaultIsolation(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport) {
		const n = 3
		m := newMux(t, tr, n)
		plan := &core.FaultPlan{
			Seed:    11,
			Default: core.LinkFaults{DropRate: 0.20, CorruptRate: 0.20, DupRate: 0.10},
		}
		stacksA, machA := pifStacks(n, tr.capacity)
		stacksB, machB := pifStacks(n, tr.capacity)
		ca := attach(t, m, stacksA, plan)
		cb := attach(t, m, stacksB, nil)
		broadcast(t, ca, machA[0], core.Payload{Tag: "a", Num: 5})
		broadcast(t, cb, machB[0], core.Payload{Tag: "b", Num: 6})

		var faultsA, faultsB int64
		for _, s := range ca.TransportStats() {
			faultsA += s.Faults.Total()
		}
		for _, s := range cb.TransportStats() {
			faultsB += s.Faults.Total()
		}
		if faultsA == 0 {
			t.Fatal("cluster A's fault plan injected nothing")
		}
		if faultsB != 0 {
			t.Fatalf("clean cluster B saw %d injected faults: fault plane leaked across groups", faultsB)
		}
	})
}

// TestMuxClusterCloseDetaches: closing one cluster leaves its siblings
// running on the shared sockets.
func TestMuxClusterCloseDetaches(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport) {
		const n = 2
		m := newMux(t, tr, n)
		stacksA, machA := pifStacks(n, tr.capacity)
		stacksB, machB := pifStacks(n, tr.capacity)
		ca := attach(t, m, stacksA, nil)
		cb := attach(t, m, stacksB, nil)
		broadcast(t, ca, machA[0], core.Payload{Tag: "a", Num: 1})
		if err := ca.Close(); err != nil {
			t.Fatal(err)
		}
		broadcast(t, cb, machB[0], core.Payload{Tag: "b", Num: 2})
	})
}

// TestMuxRejectsNodeLevelAttachOptions: socket-level knobs are fixed at
// NewMux; passing them per cluster must fail loudly.
func TestMuxRejectsNodeLevelAttachOptions(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport) {
		m := newMux(t, tr, 2)
		for name, try := range m.nodeLevel {
			if try(idleStacks(2)) == nil {
				t.Errorf("%s accepted per attached cluster", name)
			}
		}
		if _, err := m.attach(idleStacks(3), nil); err == nil {
			t.Error("3 stacks attached to a 2-process mux")
		}
	})
}

// TestNodeValidation: construction rejects impossible layouts.
func TestNodeValidation(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport) {
		if err := tr.node(5, []string{"a", "b"}); err == nil {
			t.Error("out-of-range self accepted")
		}
		if tr.badPeers != nil {
			if err := tr.node(0, tr.badPeers); err == nil {
				t.Error("bad peer address accepted")
			}
		}
		if _, err := tr.cluster(nil); err == nil {
			t.Error("empty cluster accepted")
		}
		if _, err := tr.mux(1); err == nil {
			t.Error("1-process mux accepted")
		}
	})
}

func newCluster(t *testing.T, tr transport, n int) *engine.Cluster {
	t.Helper()
	c, err := tr.cluster(idleStacks(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// probe is an Await condition that counts its evaluations: it is
// registered exactly while atomic sections keep evaluating it.
type probe struct {
	evals atomic.Int64
	holds atomic.Bool
}

func (pr *probe) cond(core.Env) bool {
	pr.evals.Add(1)
	return pr.holds.Load()
}

// registered waits for the evaluation at registration.
func (pr *probe) registered(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for pr.evals.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("condition never evaluated: Await did not register")
		}
		time.Sleep(time.Millisecond)
	}
}

// gone checks that the registry no longer holds the condition: an atomic
// section at process p (which ends by re-checking p's waiters) leaves its
// evaluation count unchanged.
func (pr *probe) gone(t *testing.T, sub core.Substrate, p core.ProcID) {
	t.Helper()
	before := pr.evals.Load()
	sub.Do(p, func(core.Env) {})
	if after := pr.evals.Load(); after != before {
		t.Fatalf("condition still registered: evaluated %d more times", after-before)
	}
}

// TestAwaitTrueConditionReturnsAtOnce: a condition that already holds is
// answered at registration, even on an already-cancelled context —
// completion wins over cancellation — and is evaluated exactly once.
func TestAwaitTrueConditionReturnsAtOnce(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport) {
		c := newCluster(t, tr, 2)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var pr probe
		pr.holds.Store(true)
		if err := c.Await(ctx, 0, pr.cond); err != nil {
			t.Fatalf("Await of a true condition = %v, want nil", err)
		}
		if got := pr.evals.Load(); got != 1 {
			t.Fatalf("condition evaluated %d times, want 1", got)
		}
		pr.gone(t, c, 0)
	})
}

// TestAwaitCancelLeavesRegistryEmpty: cancelling the context returns
// ctx.Err() and deregisters the condition, whether the context ended
// before or during the wait.
func TestAwaitCancelLeavesRegistryEmpty(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport) {
		c := newCluster(t, tr, 2)

		var early probe
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := c.Await(ctx, 0, early.cond); !errors.Is(err, context.Canceled) {
			t.Fatalf("Await on a cancelled context = %v, want context.Canceled", err)
		}
		early.gone(t, c, 0)

		var late probe
		ctx, cancel = context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- c.Await(ctx, 1, late.cond) }()
		late.registered(t)
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Await = %v, want context.Canceled", err)
		}
		late.gone(t, c, 1)
	})
}

// TestAwaitStopped: closing the cluster releases a pending Await with
// ErrStopped, and a later Await fails the same way at once.
func TestAwaitStopped(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport) {
		c := newCluster(t, tr, 2)
		var pr probe
		done := make(chan error, 1)
		go func() { done <- c.Await(context.Background(), 0, pr.cond) }()
		pr.registered(t)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; !errors.Is(err, engine.ErrStopped) {
			t.Fatalf("Await across Close = %v, want ErrStopped", err)
		}
		if err := c.Await(context.Background(), 0, pr.cond); !errors.Is(err, engine.ErrStopped) {
			t.Fatalf("Await after Close = %v, want ErrStopped", err)
		}
	})
}

// TestMuxClusterCloseReleasesOnlyItsWaiters: closing one attached
// cluster fails its own pending Awaits, while a sibling's waiter stays
// registered and completes as soon as an atomic section makes its
// condition true.
func TestMuxClusterCloseReleasesOnlyItsWaiters(t *testing.T) {
	forEach(t, func(t *testing.T, tr transport) {
		m := newMux(t, tr, 2)
		ca := attach(t, m, idleStacks(2), nil)
		cb := attach(t, m, idleStacks(2), nil)
		var pa, pb probe
		doneA := make(chan error, 1)
		doneB := make(chan error, 1)
		go func() { doneA <- ca.Await(context.Background(), 0, pa.cond) }()
		go func() { doneB <- cb.Await(context.Background(), 0, pb.cond) }()
		pa.registered(t)
		pb.registered(t)

		if err := ca.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-doneA; !errors.Is(err, engine.ErrStopped) {
			t.Fatalf("closed cluster's Await = %v, want ErrStopped", err)
		}
		select {
		case err := <-doneB:
			t.Fatalf("sibling's Await returned %v when its neighbour closed", err)
		default:
		}
		cb.Do(0, func(core.Env) { pb.holds.Store(true) })
		if err := <-doneB; err != nil {
			t.Fatalf("sibling's Await = %v, want nil", err)
		}
	})
}
