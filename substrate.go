package snapstab

import (
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/pif"
	"github.com/snapstab/snapstab/internal/runtime"
	"github.com/snapstab/snapstab/internal/sim"
	"github.com/snapstab/snapstab/internal/transport/engine"
	tcp "github.com/snapstab/snapstab/internal/transport/tcp"
	udp "github.com/snapstab/snapstab/internal/transport/udp"
)

// Substrate selects the execution engine a cluster runs on. The paper's
// guarantee — every request satisfied from an arbitrary initial
// configuration — is substrate-independent, and so is the cluster API:
// the same cluster code runs on every engine.
//
//   - Sim: the deterministic seeded simulator (default). Executions
//     replay exactly from (topology, options); Stats reports scheduler
//     counters; step budgets apply.
//   - Runtime: one goroutine per process with event-driven in-memory
//     delivery — real concurrency, not reproducible. Use context
//     deadlines instead of step budgets.
//   - UDP: one loopback socket per process exchanging wire-encoded
//     datagrams — the paper's concluding "future challenge". Natural
//     loss plus bounded mailboxes restoring the known capacity bound;
//     messages coalesce into wire v3 batch datagrams (WithBatch).
//   - TCP: one loopback listener per process with persistent
//     connections; bounded queues and mailboxes restore the model's
//     lossy channels at the stream's edges.
//   - TCPHost: one real process of a multi-daemon TCP fleet.
//   - Mux.Substrate(): a cluster attached as a wire v3 group on a
//     shared UDPMux/TCPMux socket layer.
//
// A Substrate value is a specification; the engine itself is built when
// the cluster is constructed and released by the cluster's Close.
type Substrate struct {
	name string
	// capacity gives the channel-capacity bound the protocol machines
	// must be built with; nil means the cluster's WithCapacity option.
	capacity func(o options) int
	// build constructs and starts the engine from one stack per process.
	build func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error)
}

// machineCap returns the capacity bound machines should declare (the
// flag domain is sized from it, see pif.WithCapacityBound).
func (s Substrate) machineCap(o options) int {
	if s.capacity != nil {
		return s.capacity(o)
	}
	return o.capacity
}

// Sim selects the deterministic simulator: the substrate of the paper's
// model in its purest form, and of every experiment. WithSeed,
// WithLossRate, WithCapacity, and WithStepBudget all apply.
func Sim() Substrate {
	return Substrate{
		name: "sim",
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			sopts := []sim.Option{
				sim.WithSeed(o.seed),
				sim.WithLossRate(o.lossRate),
				sim.WithCapacity(o.capacity),
				sim.WithAwaitBudget(o.maxSteps),
			}
			if o.topology != nil {
				sopts = append(sopts, sim.WithTopology(o.topology))
			}
			if o.faults != nil {
				sopts = append(sopts, sim.WithFaults(o.faults))
			}
			for _, ob := range obs {
				sopts = append(sopts, sim.WithObserver(ob))
			}
			return sim.New(stacks, sopts...), nil
		},
	}
}

// Runtime selects the concurrent in-memory engine: one goroutine per
// process, per-link bounded capacity, event-driven delivery. WithCapacity
// and WithLossRate apply; WithSeed seeds only corruption (executions are
// genuinely nondeterministic) and WithStepBudget is ignored — bound
// requests with Request.Wait contexts instead.
func Runtime() Substrate {
	return Substrate{
		name: "runtime",
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			ropts := []runtime.Option{
				runtime.WithCapacity(o.capacity),
				runtime.WithLossRate(o.lossRate),
			}
			if o.topology != nil {
				ropts = append(ropts, runtime.WithTopology(o.topology))
			}
			if o.faults != nil {
				ropts = append(ropts, runtime.WithFaults(o.faults))
			}
			for _, ob := range obs {
				ropts = append(ropts, runtime.WithObserver(ob))
			}
			e := runtime.New(stacks, ropts...)
			e.Start()
			return e, nil
		},
	}
}

// UDP selects the loopback datagram transport: one socket per process,
// wire-encoded messages, natural loss, bounded receive mailboxes. The
// machines are built with the transport's conservative assumed capacity
// bound (or WithCapacity, if larger); WithLossRate and WithStepBudget are
// ignored — UDP loses messages on its own, and requests are bounded with
// Request.Wait contexts. Socket binding happens at cluster construction
// and panics on failure.
func UDP() Substrate {
	return Substrate{
		name:     "udp",
		capacity: socketCapacity(udp.DefaultAssumedCapacity),
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			return udp.NewCluster(stacks, transportOptions(o, obs)...)
		},
	}
}

// transportOptions assembles the options of the socket substrates.
func transportOptions(o options, obs []core.Observer) []engine.Option {
	opts := make([]engine.Option, 0, len(obs)+3)
	for _, ob := range obs {
		opts = append(opts, engine.WithObserver(ob))
	}
	if o.batch > 0 {
		opts = append(opts, engine.WithBatch(o.batch))
	}
	if o.topology != nil {
		opts = append(opts, engine.WithTopology(o.topology))
	}
	if o.faults != nil {
		opts = append(opts, engine.WithFaults(o.faults))
	}
	return opts
}

// socketCapacity is the machine capacity bound on a socket substrate:
// the transport's conservative assumed bound, or WithCapacity if larger.
func socketCapacity(assumed int) func(options) int {
	return func(o options) int { return max(o.capacity, assumed) }
}

// TCP selects the loopback stream transport: one listener per process,
// persistent connections carrying length-prefixed wire frames, redial
// with backoff on connection loss. TCP delivers reliably per connection,
// so the transport restores the model's lossy bounded channels at its
// edges: bounded outbound queues (overflow drops at the sender), bounded
// receive mailboxes (lose-on-full), and connection loss as message loss.
// The machines are built with the transport's conservative assumed
// capacity bound (or WithCapacity, if larger); WithLossRate and
// WithStepBudget are ignored — bound requests with Request.Wait contexts.
// Listener binding happens at cluster construction and panics on failure.
func TCP() Substrate {
	return Substrate{
		name:     "tcp",
		capacity: socketCapacity(tcp.DefaultAssumedCapacity),
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			return tcp.NewCluster(stacks, transportOptions(o, obs)...)
		},
	}
}

// TCPFleet describes one daemon's place in a multi-host TCP fleet, for
// TCPHost.
type TCPFleet struct {
	// Self is the process this OS process hosts (the cluster's other
	// processes run in other daemons).
	Self int
	// Listen is the local listen address; port 0 lets the kernel pick.
	Listen string
	// Peers maps every process ID to its advertised address (entry Self
	// is ignored). Length must equal the cluster size. An empty entry
	// leaves that link unwired.
	Peers []string
}

// TCPHost selects single-process fleet hosting: the cluster API drives
// ONE process over TCP while the rest of the fleet runs in other OS
// processes (snapd daemons) built from the same cluster parameters.
// Every cluster method that targets another daemon's process returns an
// error wrapping ErrRemoteProcess — issue those requests at that
// process's daemon. Whole-cluster seeded operations (CorruptEverything)
// remain fleet-deterministic: each daemon holds inert copies of the
// remote stacks so the seeded draws line up across the fleet.
func TCPHost(f TCPFleet) Substrate {
	return Substrate{
		name:     "tcp-host",
		capacity: socketCapacity(tcp.DefaultAssumedCapacity),
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			cfg := tcp.HostConfig{
				Self:   core.ProcID(f.Self),
				Listen: f.Listen,
				Peers:  f.Peers,
			}
			return tcp.NewHost(cfg, stacks, transportOptions(o, obs)...)
		},
	}
}

// ErrRemoteProcess is returned (wrapped) by requests addressed to a
// process hosted by another daemon on the TCPHost substrate.
var ErrRemoteProcess = tcp.ErrRemoteProcess

// WithSubstrate selects the execution substrate (default Sim()).
func WithSubstrate(s Substrate) Option {
	return func(o *options) { o.substrate = s }
}

// capacityBound is the pif option every cluster constructor derives from
// the selected substrate.
func capacityBound(o options) pif.Option {
	return pif.WithCapacityBound(o.substrate.machineCap(o))
}
