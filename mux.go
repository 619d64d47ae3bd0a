package snapstab

import (
	"github.com/snapstab/snapstab/internal/core"
	"github.com/snapstab/snapstab/internal/transport/engine"
	tcp "github.com/snapstab/snapstab/internal/transport/tcp"
	udp "github.com/snapstab/snapstab/internal/transport/udp"
)

// Mux is a shared transport layer hosting many clusters over one set of
// sockets: n UDP sockets (UDPMux) or n TCP listeners with one persistent
// connection mesh (TCPMux), where n is the process count every attached
// cluster must share. Each cluster built on Mux.Substrate() attaches as
// a wire v3 group: its messages ride the shared sockets tagged with a
// group id, batched and coalesced together with its siblings' traffic,
// while routing, topology, observers, the fault plane, and the message
// counters stay strictly per cluster.
//
//	mux, err := snapstab.UDPMux(5)
//	defer mux.Close()
//	a := snapstab.NewPIFCluster(5, snapstab.WithSubstrate(mux.Substrate()))
//	b := snapstab.NewPIFCluster(5, snapstab.WithSubstrate(mux.Substrate()))
//
// Closing a cluster detaches its group and leaves the mux — and every
// sibling cluster — running; the mux itself must be closed by its owner
// to release the sockets (which also tears down any still-attached
// clusters).
type Mux struct {
	m       *engine.Mux
	name    string
	assumed int // the transport's assumed capacity bound
}

// UDPMux binds one loopback datagram socket per process and returns a
// mux ready to host clusters. The only cluster option read here is
// WithBatch, fixing the coalescing ceiling of the shared sockets (the
// batch is a socket-level knob, so it cannot vary per attached cluster);
// everything else — topology, faults, receivers, capacity — is given to
// the cluster constructors instead. Socket binding failures are
// returned, not panicked: the mux is built before any cluster exists.
func UDPMux(nProcs int, opts ...Option) (*Mux, error) {
	m, err := udp.NewMux(nProcs, muxOptions(opts)...)
	if err != nil {
		return nil, err
	}
	return &Mux{m: m, name: "udp-mux", assumed: udp.DefaultAssumedCapacity}, nil
}

// TCPMux binds one loopback listener per process, dials the full
// connection mesh, and returns a mux ready to host clusters. As with
// UDPMux, the only cluster option read here is WithBatch — on TCP it
// bounds the frames per vectored write on the shared connections;
// per-cluster options belong to the cluster constructors.
func TCPMux(nProcs int, opts ...Option) (*Mux, error) {
	m, err := tcp.NewMux(nProcs, muxOptions(opts)...)
	if err != nil {
		return nil, err
	}
	return &Mux{m: m, name: "tcp-mux", assumed: tcp.DefaultAssumedCapacity}, nil
}

// muxOptions keeps the one socket-level cluster option, WithBatch.
func muxOptions(opts []Option) []engine.Option {
	if o := buildOptions(opts); o.batch > 0 {
		return []engine.Option{engine.WithBatch(o.batch)}
	}
	return nil
}

// N returns the process count every attached cluster must match.
func (m *Mux) N() int { return m.m.N() }

// Addrs returns every node's bound local address.
func (m *Mux) Addrs() []string { return m.m.Addrs() }

// Substrate returns the substrate specification that attaches a cluster
// to this mux. Each cluster constructed with it becomes a fresh group on
// the shared sockets; the specification is reusable — build as many
// clusters from it as the application needs. Cluster topology, faults,
// and event hooks apply per attached cluster as on the dedicated
// UDP()/TCP() substrates; WithBatch does not (the batch ceiling was
// fixed when the mux was built) and is ignored.
func (m *Mux) Substrate() Substrate {
	return Substrate{
		name:     m.name,
		capacity: socketCapacity(m.assumed),
		build: func(o options, stacks []core.Stack, obs []core.Observer) (core.Substrate, error) {
			o.batch = 0 // socket-level, fixed when the mux was built
			return m.m.Attach(stacks, transportOptions(o, obs)...)
		},
	}
}

// Close releases the shared sockets, tearing down every still-attached
// cluster. Idempotent.
func (m *Mux) Close() error { return m.m.Close() }
