// Substrate-mode driving: NewCluster and NewMux are the engine's Cluster
// and Mux over the stream mover. Host runs ONE real node of a fleet whose
// other processes live in other OS processes (snapd daemons on other
// hosts); it still holds all n stacks so that seeded operations
// (CorruptEverything) stay deterministic fleet-wide, but only
// stacks[self] is driven by a transport.
package tcp

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
)

// ErrRemoteProcess is returned by Host.Await for any process other than
// the hosted one: a daemon can only observe its own process; requests at
// other processes belong to their daemons.
var ErrRemoteProcess = errors.New("tcp: process is hosted by another daemon")

// Cluster is a set of TCP nodes on the loopback interface, one per
// protocol stack, fully wired and started.
type Cluster = engine.Cluster

// MuxCluster is one cluster hosted on a Mux.
type MuxCluster = engine.MuxCluster

// NewCluster binds one loopback listener per stack on port 0, wires the
// learned addresses along the topology's edges, and starts every node.
func NewCluster(stacks []core.Stack, opts ...Option) (*Cluster, error) {
	return engine.NewCluster("tcp", stacks, bind(len(stacks), opts))
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

// Mux hosts many clusters over one set of TCP connections; Attach
// installs each as a wire v3 group.
type Mux = engine.Mux

// NewMux binds one loopback listener per process and starts the shared
// loops with no groups attached. Options must be node-level (WithBatch);
// per-cluster options (topology, faults, observers) belong to Attach.
// The caller owns the mux and must Close it to release the listeners.
func NewMux(nProcs int, opts ...Option) (*Mux, error) {
	return engine.NewMux("tcp", nProcs, bind(nProcs, opts))
}

// HostConfig describes one daemon's place in a multi-host fleet.
type HostConfig struct {
	// Self is the process this daemon hosts.
	Self core.ProcID
	// Listen is the local listen address (use port 0 to let the kernel
	// pick; the bound address is available via Host.Addr).
	Listen string
	// Peers maps every process ID to its advertised address. Entry Self
	// is ignored. An empty entry leaves that link unwired: sends to it
	// vanish silently, as to an unwired UDP peer.
	Peers []string
}

// Host is a core.Substrate hosting exactly one process of an n-process
// fleet over TCP. The other processes run in other daemons; their stacks
// exist here only as inert local copies, kept so that seeded whole-
// cluster operations (corruption draws in particular) consume the same
// randomness at the same stack positions in every daemon — a fleet of n
// daemons sharing a seed perturbs its n real processes exactly as one
// local cluster would.
type Host struct {
	node      *Node
	self      core.ProcID
	stacks    []core.Stack
	deadMu    []sync.Mutex // one per inert stack; index Self is unused
	closeOnce sync.Once
}

var _ core.Substrate = (*Host)(nil)
var _ core.TransportStatser = (*Host)(nil)

// NewHost binds the hosted process's listener and starts it. The caller
// owns the host and must Close it.
func NewHost(cfg HostConfig, stacks []core.Stack, opts ...Option) (*Host, error) {
	n := len(stacks)
	if n < 2 {
		return nil, fmt.Errorf("tcp: need at least 2 processes, got %d", n)
	}
	if int(cfg.Self) < 0 || int(cfg.Self) >= n {
		return nil, fmt.Errorf("tcp: self %d outside fleet of %d", cfg.Self, n)
	}
	if len(cfg.Peers) != n {
		return nil, fmt.Errorf("tcp: %d peer addresses for a fleet of %d", len(cfg.Peers), n)
	}
	listen := cfg.Listen
	if listen == "" {
		listen = ":0"
	}
	node, err := NewNode(cfg.Self, stacks[cfg.Self], listen, cfg.Peers, opts...)
	if err != nil {
		return nil, err
	}
	h := &Host{
		node:   node,
		self:   cfg.Self,
		stacks: stacks,
		deadMu: make([]sync.Mutex, n),
	}
	node.Start()
	return h, nil
}

// N returns the fleet size (not the number of local processes).
func (h *Host) N() int { return len(h.stacks) }

// Self returns the hosted process.
func (h *Host) Self() core.ProcID { return h.self }

// Addr returns the hosted node's bound listen address.
func (h *Host) Addr() string { return h.node.Addr() }

// deadEnv is the environment handed to Do calls against inert remote
// stacks: sends vanish (the stack is not connected to anything) and
// events are discarded.
type deadEnv struct {
	self core.ProcID
	n    int
}

func (d deadEnv) Self() core.ProcID                   { return d.self }
func (d deadEnv) N() int                              { return d.n }
func (d deadEnv) Send(to core.ProcID, m core.Message) {}
func (d deadEnv) Emit(ev core.Event)                  {}

// Do runs f atomically at process p. For the hosted process this is the
// real node's action mutex; for any other process it runs against the
// inert local stack copy with a detached environment — state mutations
// (seeded corruption) land, sends vanish.
func (h *Host) Do(p core.ProcID, f func(env core.Env)) {
	if p == h.self {
		h.node.Do(f)
		return
	}
	h.deadMu[p].Lock()
	f(deadEnv{self: p, n: len(h.stacks)})
	h.deadMu[p].Unlock()
}

// Await observes the hosted process like Cluster.Await; for any other
// process it fails immediately with ErrRemoteProcess — that process's
// daemon is the only place its requests can be issued and observed.
func (h *Host) Await(ctx context.Context, p core.ProcID, cond func(env core.Env) bool) error {
	if p != h.self {
		return fmt.Errorf("%w: %d (this daemon hosts %d)", ErrRemoteProcess, p, h.self)
	}
	return h.node.Await(ctx, cond)
}

// TransportStats returns one entry per fleet process: real counters at
// the hosted index, zero values elsewhere (those counters live in the
// other daemons).
func (h *Host) TransportStats() []core.TransportStats {
	out := make([]core.TransportStats, len(h.stacks))
	out[h.self] = h.node.Stats()
	return out
}

// Close stops the hosted node. Idempotent.
func (h *Host) Close() error {
	h.closeOnce.Do(func() { h.node.Stop() })
	return nil
}
