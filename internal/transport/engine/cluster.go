// Substrate views over node engines: Cluster drives one node per stack
// (its default group), Mux one bare node per process with every cluster
// attached as a fresh wire v3 group. Both bind loopback port 0 through a
// mover-specific Bind and wire the learned addresses afterwards.
package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/snapstab/snapstab/internal/core"
)

// Bind builds the stopped node of process self on a loopback address.
// stack is its default group, nil for a mux node.
type Bind func(self core.ProcID, stack core.Stack) (*Node, error)

// bindAll binds one node per process, stopping the ones already bound
// if any bind fails.
func bindAll(name string, stacks []core.Stack, bind Bind) ([]*Node, error) {
	if len(stacks) < 2 {
		return nil, fmt.Errorf("%s: need at least 2 processes, got %d", name, len(stacks))
	}
	nodes := make([]*Node, len(stacks))
	for i, s := range stacks {
		node, err := bind(core.ProcID(i), s)
		if err != nil {
			for _, prev := range nodes[:i] {
				prev.Stop()
			}
			return nil, fmt.Errorf("%s: bind node %d: %w", name, i, err)
		}
		nodes[i] = node
	}
	return nodes, nil
}

// wireAndStart hands every node the addresses of the peers it has an
// edge to (all of them when topo is nil), then starts every node.
func wireAndStart(nodes []*Node, topo *core.Topology) error {
	for i, node := range nodes {
		for j, other := range nodes {
			if i == j || (topo != nil && !topo.HasEdge(core.ProcID(i), core.ProcID(j))) {
				continue
			}
			if err := node.mover.SetPeerAddr(core.ProcID(j), other.Addr()); err != nil {
				stopAll(nodes)
				return err
			}
		}
	}
	for _, node := range nodes {
		node.Start()
	}
	return nil
}

func stopAll(nodes []*Node) {
	for _, node := range nodes {
		node.Stop()
	}
}

func addrs(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, node := range nodes {
		out[i] = node.Addr()
	}
	return out
}

// Cluster is a set of nodes on the loopback interface, one per protocol
// stack, wired and started: a core.Substrate over real sockets.
type Cluster struct {
	nodes     []*Node
	closeOnce sync.Once
}

var (
	_ core.Substrate        = (*Cluster)(nil)
	_ core.TransportStatser = (*Cluster)(nil)
)

// NewCluster binds one node per stack, wires addresses along the
// default group's topology only — a node never learns where its
// non-neighbours live, mirroring a deployment where each host is
// configured with its neighbour list — and starts them. The caller owns
// the cluster and must Close it.
func NewCluster(name string, stacks []core.Stack, bind Bind) (*Cluster, error) {
	nodes, err := bindAll(name, stacks, bind)
	if err != nil {
		return nil, err
	}
	if err := wireAndStart(nodes, nodes[0].Topology()); err != nil {
		return nil, err
	}
	return &Cluster{nodes: nodes}, nil
}

// N returns the number of nodes.
func (c *Cluster) N() int { return len(c.nodes) }

// Addrs returns every node's bound local address.
func (c *Cluster) Addrs() []string { return addrs(c.nodes) }

// TransportStats implements core.TransportStatser: one snapshot per
// node.
func (c *Cluster) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(c.nodes))
	for i, node := range c.nodes {
		out[i] = node.Stats()
	}
	return out
}

// Do runs f as one atomic section at process p.
func (c *Cluster) Do(p core.ProcID, f func(env core.Env)) { c.nodes[p].Do(f) }

// Await blocks until cond holds at process p; see Node.Await.
func (c *Cluster) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	return c.nodes[p].Await(ctx, cond)
}

// Close stops every node, releasing loops and sockets. Idempotent.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() { stopAll(c.nodes) })
	return nil
}

// Mux hosts many core.Substrate instances over one set of nodes.
type Mux struct {
	name  string
	nodes []*Node

	mu      sync.Mutex
	nextGid uint64
	closed  bool

	closeOnce sync.Once
}

// NewMux binds one bare node per process, wires every address — per-group
// topologies restrict traffic at the message level, so the socket layer
// needs all of them — and starts the shared loops with no groups
// attached. The caller owns the mux and must Close it.
func NewMux(name string, nProcs int, bind Bind) (*Mux, error) {
	nodes, err := bindAll(name, make([]core.Stack, max(nProcs, 0)), bind)
	if err != nil {
		return nil, err
	}
	if err := wireAndStart(nodes, nil); err != nil {
		return nil, err
	}
	return &Mux{name: name, nodes: nodes, nextGid: 1}, nil
}

// N returns the number of processes.
func (m *Mux) N() int { return len(m.nodes) }

// Addrs returns every node's bound local address.
func (m *Mux) Addrs() []string { return addrs(m.nodes) }

// Attach installs one cluster — one stack per process — as a fresh
// group on every node and returns its substrate view. Options here are
// per-cluster (WithTopology, WithFaults, WithObserver); node-level
// options are rejected, they were fixed when the mux was built. Attach
// may be called any time while the mux runs; a cluster's fault schedule
// starts at its own attach instant.
func (m *Mux) Attach(stacks []core.Stack, opts ...Option) (*MuxCluster, error) {
	if len(stacks) != len(m.nodes) {
		return nil, fmt.Errorf("%s: %d stacks for a mux of %d processes", m.name, len(stacks), len(m.nodes))
	}
	o := Apply(opts)
	if o.nodeLevel() {
		return nil, fmt.Errorf("%s: node-level option per attached cluster; set it on the mux", m.name)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("%s: mux closed", m.name)
	}
	gid := m.nextGid
	m.nextGid++
	m.mu.Unlock()

	c := &MuxCluster{mux: m, gid: gid, groups: make([]*Group, len(m.nodes))}
	epoch := time.Now()
	for i, node := range m.nodes {
		g, err := node.buildGroup(gid, stacks[i], o.Group)
		if err != nil {
			for _, prev := range m.nodes[:i] {
				prev.setGroup(gid, nil)
			}
			return nil, err
		}
		g.epoch = epoch
		c.groups[i] = g
		node.setGroup(gid, g)
	}
	return c, nil
}

// Close stops every node, releasing loops and sockets — and with them
// every attached cluster. Idempotent.
func (m *Mux) Close() error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.closeOnce.Do(func() { stopAll(m.nodes) })
	return nil
}

// MuxCluster is one cluster hosted on a Mux: a core.Substrate whose
// processes share their sockets and loops with every other attached
// cluster, isolated from them by the wire v3 group id.
type MuxCluster struct {
	mux    *Mux
	gid    uint64
	groups []*Group // per process

	closeOnce sync.Once
}

var (
	_ core.Substrate        = (*MuxCluster)(nil)
	_ core.TransportStatser = (*MuxCluster)(nil)
)

// N returns the number of processes.
func (c *MuxCluster) N() int { return len(c.groups) }

// Group returns the wire v3 group id this cluster's traffic carries.
func (c *MuxCluster) Group() uint64 { return c.gid }

// Do runs f as one atomic section at process p with this cluster's
// environment.
func (c *MuxCluster) Do(p core.ProcID, f func(env core.Env)) {
	c.mux.nodes[p].doGroup(c.groups[p], f)
}

// Await blocks until cond holds at process p in this cluster; see
// Node.Await. Closing the cluster releases it with ErrStopped.
func (c *MuxCluster) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	return c.mux.nodes[p].awaitGroup(ctx, c.groups[p], cond)
}

// TransportStats implements core.TransportStatser for this cluster. The
// message counters are this cluster's own; the frame, syscall, redial,
// and link counters are per node, shared with the other attached
// clusters.
func (c *MuxCluster) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(c.groups))
	for i, g := range c.groups {
		out[i] = c.mux.nodes[i].groupStats(g)
	}
	return out
}

// Close detaches the cluster from every node: its pending Awaits fail
// with ErrStopped, its boxed mail is discarded, subsequent frames for
// its group id are dropped, and the mux keeps running for its siblings.
// Idempotent.
func (c *MuxCluster) Close() error {
	c.closeOnce.Do(func() {
		for i, node := range c.mux.nodes {
			c.groups[i].waiters.Close(ErrStopped)
			node.setGroup(c.gid, nil)
		}
	})
	return nil
}
