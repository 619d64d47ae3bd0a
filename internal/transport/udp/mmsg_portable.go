//go:build !linux || (!amd64 && !arm64)

package udp

import "net/netip"

// Portable batch-IO shims: platforms without the raw
// sendmmsg/recvmmsg path still batch messages into wire v3 datagrams —
// the per-message syscall amortization — but move one datagram per
// system call.

type mmsgState struct{}

func (mv *mover) initTransportIO() {}

func (mv *mover) sendFrames(buf []byte, frames []frameRef) {
	mv.sendFramesLoop(buf, frames)
}

type reader struct {
	mv  *mover
	buf []byte
}

func (mv *mover) newReader() *reader {
	return &reader{mv: mv, buf: make([]byte, 64*1024)}
}

func (r *reader) read(h func([]byte, netip.AddrPort)) {
	r.mv.readPortable(r.buf, h)
}
