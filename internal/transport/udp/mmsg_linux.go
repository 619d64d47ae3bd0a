//go:build linux && (amd64 || arm64)

package udp

// Raw batch IO: sendmmsg/recvmmsg through the runtime's netpoller. The
// stdlib syscall package carries the syscall numbers on these
// platforms, so no external dependency is needed; everywhere else the
// portable shims apply (mmsg_portable.go).
//
// The RawConn callbacks keep the Go IO discipline intact: the sockets
// are non-blocking, so a syscall that would block returns EAGAIN, the
// callback returns false, and the runtime parks the goroutine on the
// netpoller until readiness or the configured deadline — exactly the
// semantics ReadFromUDPAddrPort/WriteToUDP provide, one datagram batch
// at a time instead of one datagram.

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"github.com/snapstab/snapstab/internal/core"
)

// mmsgCap is how many datagrams one recvmmsg/sendmmsg call moves at
// most. Receive buffers are sized for a maximal datagram, so the cap
// also bounds the reader's standing allocation (16 × 64KiB = 1MiB).
const mmsgCap = 16

// mmsghdr is struct mmsghdr from socket(7): a Msghdr plus the
// kernel-written datagram length, padded to keep the array stride
// 8-aligned on both amd64 and arm64.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

type mmsgState struct {
	ok     bool
	rc     syscall.RawConn
	sendSA [][]byte // per-peer raw sockaddr bytes, fixed after Start

	// sendmmsg scratch, used under the engine's action mutex only.
	sIov  []syscall.Iovec
	sHdrs []mmsghdr
}

// initTransportIO precomputes raw sockaddrs for every wired peer and
// grabs the raw connection. Any address the socket's family cannot
// express disables the raw path wholesale; the portable loop takes over.
func (mv *mover) initTransportIO() {
	rc, err := mv.conn.SyscallConn()
	if err != nil {
		return
	}
	la, ok := mv.conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		return
	}
	v4sock := la.IP.To4() != nil
	mv.mm.sendSA = make([][]byte, len(mv.peers))
	for i, p := range mv.peers {
		if p == nil || core.ProcID(i) == mv.self {
			continue
		}
		sa := rawSockaddr(p, v4sock)
		if sa == nil {
			return
		}
		mv.mm.sendSA[i] = sa
	}
	mv.mm.rc = rc
	mv.mm.sIov = make([]syscall.Iovec, mmsgCap)
	mv.mm.sHdrs = make([]mmsghdr, mmsgCap)
	mv.mm.ok = true
}

// rawSockaddr renders addr as the raw sockaddr bytes the socket's
// family expects: AF_INET for a v4 socket, AF_INET6 (v4-mapped when
// needed) for a dual-stack one.
func rawSockaddr(addr *net.UDPAddr, v4sock bool) []byte {
	if v4sock {
		ip4 := addr.IP.To4()
		if ip4 == nil {
			return nil
		}
		var sa syscall.RawSockaddrInet4
		sa.Family = syscall.AF_INET
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(addr.Port>>8), byte(addr.Port)
		copy(sa.Addr[:], ip4)
		buf := make([]byte, syscall.SizeofSockaddrInet4)
		copy(buf, (*(*[syscall.SizeofSockaddrInet4]byte)(unsafe.Pointer(&sa)))[:])
		return buf
	}
	ip16 := addr.IP.To16()
	if ip16 == nil {
		return nil
	}
	var sa syscall.RawSockaddrInet6
	sa.Family = syscall.AF_INET6
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0], p[1] = byte(addr.Port>>8), byte(addr.Port)
	copy(sa.Addr[:], ip16)
	buf := make([]byte, syscall.SizeofSockaddrInet6)
	copy(buf, (*(*[syscall.SizeofSockaddrInet6]byte)(unsafe.Pointer(&sa)))[:])
	return buf
}

// sendFrames writes every rendered frame, packing up to mmsgCap
// datagrams — across destinations — into each sendmmsg call. Runs under
// the engine's action mutex.
func (mv *mover) sendFrames(buf []byte, frames []frameRef) {
	if !mv.mm.ok {
		mv.sendFramesLoop(buf, frames)
		return
	}
	for start := 0; start < len(frames); {
		k := len(frames) - start
		if k > mmsgCap {
			k = mmsgCap
		}
		for j := 0; j < k; j++ {
			fr := frames[start+j]
			sa := mv.mm.sendSA[fr.to]
			iov := &mv.mm.sIov[j]
			iov.Base = &buf[fr.off]
			iov.SetLen(fr.len)
			h := &mv.mm.sHdrs[j].hdr
			h.Name = &sa[0]
			h.Namelen = uint32(len(sa))
			h.Iov = iov
			h.Iovlen = 1
		}
		sent := 0
		var serr syscall.Errno
		werr := mv.mm.rc.Write(func(fd uintptr) bool {
			for sent < k {
				v, _, e := syscall.Syscall6(sysSENDMMSG, fd,
					uintptr(unsafe.Pointer(&mv.mm.sHdrs[sent])), uintptr(k-sent), 0, 0, 0)
				if e == syscall.EINTR {
					continue
				}
				if e == syscall.EAGAIN {
					return false // park on the netpoller until writable
				}
				if e != 0 {
					serr = e
					return true
				}
				mv.e.IO.SendSyscalls.Add(1)
				sent += int(v)
			}
			return true
		})
		for j := 0; j < sent; j++ {
			mv.frameSent(frames[start+j])
		}
		if sent < k {
			for j := sent; j < k; j++ {
				mv.frameFailed(frames[start+j])
			}
			if werr != nil || serr != 0 {
				// Socket-level failure (closed, unreachable): the remaining
				// chunks would fail identically.
				for _, fr := range frames[start+k:] {
					mv.frameFailed(fr)
				}
				return
			}
		}
		start += k
	}
}

// reader pulls up to mmsgCap datagrams per recvmmsg call.
type reader struct {
	mv    *mover
	ok    bool
	bufs  [][]byte
	names []syscall.RawSockaddrAny
	iovs  []syscall.Iovec
	hdrs  []mmsghdr
	pbuf  []byte // portable fallback
}

func (mv *mover) newReader() *reader {
	r := &reader{mv: mv}
	rc := mv.mm.rc
	if rc == nil {
		var err error
		if rc, err = mv.conn.SyscallConn(); err != nil {
			r.pbuf = make([]byte, 64*1024)
			return r
		}
		mv.mm.rc = rc
	}
	r.ok = true
	r.bufs = make([][]byte, mmsgCap)
	r.names = make([]syscall.RawSockaddrAny, mmsgCap)
	r.iovs = make([]syscall.Iovec, mmsgCap)
	r.hdrs = make([]mmsghdr, mmsgCap)
	for i := range r.bufs {
		r.bufs[i] = make([]byte, 64*1024)
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].SetLen(len(r.bufs[i]))
		h := &r.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
	}
	return r
}

func (r *reader) read(h func([]byte, netip.AddrPort)) {
	if !r.ok {
		r.mv.readPortable(r.pbuf, h)
		return
	}
	mv := r.mv
	for i := range r.hdrs {
		// The kernel overwrote these on the previous call.
		r.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrAny
		r.hdrs[i].n = 0
	}
	got := 0
	var serr syscall.Errno
	err := mv.mm.rc.Read(func(fd uintptr) bool {
		for {
			v, _, e := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
				uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch e {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // park until readable or closed
			}
			if e != 0 {
				serr = e
			} else {
				got = int(v)
			}
			return true
		}
	})
	if err != nil || serr != 0 || got == 0 {
		return // closed or transient error: the loop decides
	}
	mv.e.IO.RecvSyscalls.Add(1)
	mv.e.IO.RecvFrames.Add(int64(got))
	for i := 0; i < got; i++ {
		from, ok := rawToAddrPort(&r.names[i])
		if !ok {
			continue
		}
		h(r.bufs[i][:r.hdrs[i].n], from)
	}
}

// rawToAddrPort converts a kernel-written sockaddr to netip form.
func rawToAddrPort(rsa *syscall.RawSockaddrAny) (netip.AddrPort, bool) {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1])), true
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(p[0])<<8|uint16(p[1])), true
	}
	return netip.AddrPort{}, false
}
