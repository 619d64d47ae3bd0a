package core

// LinkStats counts the traffic this node exchanged with one peer over a
// real network transport. A "drop" here is a message this node lost on
// that link — a failed or timed-out write on the send side, a full
// receive mailbox on the receive side — so Sent+Dropped at the sender and
// Received+Dropped at the receiver bracket the link's true delivery rate.
type LinkStats struct {
	// Peer is the other endpoint of the link.
	Peer ProcID
	// Sent counts messages handed to the network toward Peer.
	Sent int64
	// Received counts messages delivered from Peer.
	Received int64
	// Dropped counts messages lost on this link at this node: send-side
	// failures (dead connection, timed-out write, full send queue) plus
	// receive-side mailbox drops attributed to Peer.
	Dropped int64
}

// TransportStats is the substrate-agnostic transport counter snapshot for
// one node. The network substrates (UDP, TCP) fill it from their socket
// paths; the in-memory substrates (sim, runtime) have no transport and
// report the zero value. The façade re-exports it per node, so operators
// and the metrics layer read one shape regardless of the engine.
type TransportStats struct {
	// Addr is the node's bound local address ("" on in-memory substrates).
	Addr string
	// Sends counts messages successfully handed to the network.
	Sends int64
	// Recvs counts messages received and delivered to the mailbox layer.
	Recvs int64
	// SendDrops counts messages lost at the sender — failed writes,
	// unencodable payloads, dead or backlogged connections.
	SendDrops int64
	// MailboxDrops counts messages dropped at a full receive mailbox,
	// the transport's lose-on-full rule (reported as EvLose).
	MailboxDrops int64
	// Redials counts transport reconnection attempts (TCP only: the
	// dial/accept lifecycle re-establishing a lost connection).
	Redials int64
	// SendDatagrams and RecvDatagrams count wire frames (datagrams on
	// UDP, length-prefixed frames on TCP). With wire v3 batching one
	// frame carries many messages, so Sends/SendDatagrams is the
	// outbound batch occupancy; zero on substrates without a framed
	// wire.
	SendDatagrams int64
	RecvDatagrams int64
	// SendSyscalls and RecvSyscalls count the socket system calls that
	// moved those frames (sendmmsg/recvmmsg and vectored writes make
	// them smaller than the frame counts); Sends/SendSyscalls is the
	// syscall amortization the batching path exists to maximize. Zero
	// where the transport cannot observe the syscall boundary.
	SendSyscalls int64
	RecvSyscalls int64
	// Links holds per-link detail when the transport tracks it (UDP and
	// TCP); nil on the in-memory substrates.
	Links []LinkStats
	// Faults counts the faults injected at this node's mailbox boundary
	// by an installed FaultPlan; zero without one.
	Faults FaultStats
}

// TransportStatser is implemented by substrates that move messages over
// a real network and count what happened to them. The in-memory
// substrates (sim, runtime) implement it too, returning one zero-valued
// entry per process, so callers can range over the result uniformly;
// use the zero Addr to tell "no transport" from "no traffic yet".
type TransportStatser interface {
	TransportStats() []TransportStats
}
