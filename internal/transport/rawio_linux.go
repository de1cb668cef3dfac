//go:build !386

package transport

import (
	"io"
	"net"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// On Linux every socket call on the hot paths — a stream's readv and writev,
// a datagram's recvfrom and sendto — is a syscall.RawSyscall made inside a
// syscall.RawConn callback. The callback reports EAGAIN by returning false,
// and the runtime parks the goroutine on the poller until the socket is
// ready, honouring deadlines and Close, as net's own Read and Write do. What
// the raw call leaves out is entersyscall: a syscall.Syscall made by a
// process that was idle wakes the runtime's sysmon thread, which parks again
// after it, so every message that wakes an idle node would wake and park a
// second thread. The sockets are non-blocking, so a raw call never sleeps in
// the kernel holding a P. Each callback is built once; its per-call state is
// the connection's (a stream's reads and writes are serialised by its locks)
// or comes from a pool (a datagram socket may have concurrent receivers).

// connIO is a stream's reader and vectored writer.
type connIO struct {
	rc syscall.RawConn

	// Read state, guarded by realConn.readMu: the call's vectors.
	riov   [3]syscall.Iovec
	rvecs  int
	rn     int
	rerrno syscall.Errno
	readFn func(fd uintptr) bool

	// Write state, guarded by realConn.writeMu: iov keeps its backing array
	// between calls, todo is what is left of this call's.
	iov     []syscall.Iovec
	todo    []syscall.Iovec
	wn      int
	wait    bool
	werrno  syscall.Errno
	writeFn func(fd uintptr) bool
}

// init takes c's descriptor; c is a TCP connection, whose SyscallConn fails
// only when c is nil.
func (s *connIO) init(c net.Conn) {
	s.rc, _ = c.(syscall.Conn).SyscallConn()
	s.readFn, s.writeFn = s.read, s.write
}

// scatterRead is true where a stream's readv fills every buffer it is given
// in one call: here, a raw readv(2).
const scatterRead = true

// readv reads into bufs in order, at most three of them, with one readv(2),
// parked on the poller while the socket is empty. The first is not empty. A
// peer's orderly close is io.EOF.
func (s *connIO) readv(bufs ...[]byte) (int, error) {
	s.rvecs = 0
	for _, b := range bufs {
		if len(b) > 0 {
			s.riov[s.rvecs].Base = &b[0]
			s.riov[s.rvecs].SetLen(len(b))
			s.rvecs++
		}
	}
	err := s.rc.Read(s.readFn)
	s.riov = [3]syscall.Iovec{} // hold no buffer past the call
	switch {
	case err != nil:
		return 0, err
	case s.rerrno != 0:
		return 0, os.NewSyscallError("readv", s.rerrno)
	case s.rn == 0:
		return 0, io.EOF
	}
	return s.rn, nil
}

func (s *connIO) read(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READV, fd,
			uintptr(unsafe.Pointer(&s.riov[0])), uintptr(s.rvecs))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case 0:
			s.rn, s.rerrno = int(n), 0
		default:
			s.rn, s.rerrno = 0, e
		}
		return true
	}
}

// maxIovecs is the kernel's IOV_MAX, the most buffers one writev takes.
const maxIovecs = 1024

// writev writes bufs with writev(2). With wait it parks on the poller until
// every byte is written; without, it makes one call and reports what the
// socket took, 0 bytes and no error when it is full.
func (s *connIO) writev(bufs [][]byte, wait bool) (int, error) {
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		var v syscall.Iovec
		v.Base = &b[0]
		v.SetLen(len(b))
		s.iov = append(s.iov, v)
	}
	if len(s.iov) == 0 {
		return 0, nil
	}
	s.todo, s.wn, s.wait, s.werrno = s.iov, 0, wait, 0
	err := s.rc.Write(s.writeFn)
	clear(s.iov) // hold no payload past the call
	s.iov, s.todo = s.iov[:0], nil
	switch {
	case err != nil:
		return s.wn, err
	case s.werrno != 0:
		return s.wn, os.NewSyscallError("writev", s.werrno)
	}
	return s.wn, nil
}

func (s *connIO) write(fd uintptr) bool {
	for len(s.todo) > 0 {
		v := s.todo[:min(len(s.todo), maxIovecs)]
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITEV, fd,
			uintptr(unsafe.Pointer(&v[0])), uintptr(len(v)))
		switch e {
		case 0:
			s.wn += int(n)
			s.consume(int(n))
			if !s.wait {
				return true
			}
		case syscall.EINTR:
		case syscall.EAGAIN:
			return !s.wait
		default:
			s.werrno = e
			return true
		}
	}
	return true
}

// consume drops the first n written bytes from todo.
func (s *connIO) consume(n int) {
	for n > 0 {
		v := &s.todo[0]
		if l := int(v.Len); n < l {
			v.Base = (*byte)(unsafe.Add(unsafe.Pointer(v.Base), n))
			v.SetLen(l - n)
			return
		}
		n -= int(v.Len)
		s.todo = s.todo[1:]
	}
}

// udpIO is a datagram socket's recvfrom and sendto.
type udpIO struct {
	rc    syscall.RawConn
	inet6 bool // an AF_INET6 socket, which takes IPv4 peers as mapped addresses
}

// init takes uc's descriptor and family. net binds an IPv4 address, mapped or
// not, with an AF_INET socket, and anything else with an AF_INET6 one.
func (s *udpIO) init(uc *net.UDPConn) {
	s.rc, _ = uc.SyscallConn() // fails only for a nil uc
	s.inet6 = uc.LocalAddr().(*net.UDPAddr).IP.To4() == nil
}

// dgramOp is one datagram call's state. A socket's receivers may run
// concurrently, so each call takes one from dgramOps; its callbacks are
// built with it.
type dgramOp struct {
	buf    []byte // what is received into or sent
	n      int
	errno  syscall.Errno
	sa     syscall.RawSockaddrInet6 // the peer; an AF_INET address is a prefix of it
	salen  uint32
	recvFn func(fd uintptr) bool
	sendFn func(fd uintptr) bool
}

var dgramOps = sync.Pool{New: func() any {
	op := new(dgramOp)
	op.recvFn, op.sendFn = op.recv, op.send
	return op
}}

// readFrom receives one datagram into b and returns its length and sender.
func (s *udpIO) readFrom(b []byte) (int, string, error) {
	op := dgramOps.Get().(*dgramOp)
	defer dgramOps.Put(op)
	op.buf = b
	err := s.rc.Read(op.recvFn)
	op.buf = nil
	switch {
	case err != nil:
		return 0, "", err
	case op.errno != 0:
		return 0, "", os.NewSyscallError("recvfrom", op.errno)
	}
	return op.n, op.peer().String(), nil
}

func (op *dgramOp) recv(fd uintptr) bool {
	for {
		op.salen = syscall.SizeofSockaddrInet6
		n, _, e := syscall.RawSyscall6(syscall.SYS_RECVFROM, fd,
			uintptr(unsafe.Pointer(&op.buf[0])), uintptr(len(op.buf)), 0,
			uintptr(unsafe.Pointer(&op.sa)), uintptr(unsafe.Pointer(&op.salen)))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		case 0:
			op.n, op.errno = int(n), 0
		default:
			op.n, op.errno = 0, e
		}
		return true
	}
}

// peer is the address recvfrom stored, written as net.UDPAddr writes it: an
// IPv4 peer of a dual-stack socket unmapped, a scope by interface name.
func (op *dgramOp) peer() netip.AddrPort {
	pp := (*[2]byte)(unsafe.Pointer(&op.sa.Port))
	port := uint16(pp[0])<<8 | uint16(pp[1])
	if op.sa.Family == syscall.AF_INET {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&op.sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), port)
	}
	ip := netip.AddrFrom16(op.sa.Addr).Unmap()
	if id := int(op.sa.Scope_id); id != 0 && ip.Is6() {
		zone := strconv.Itoa(id)
		if ifi, err := net.InterfaceByIndex(id); err == nil {
			zone = ifi.Name
		}
		ip = ip.WithZone(zone)
	}
	return netip.AddrPortFrom(ip, port)
}

// writeTo sends b to the literal address to.
func (s *udpIO) writeTo(b []byte, to netip.AddrPort) error {
	op := dgramOps.Get().(*dgramOp)
	defer dgramOps.Put(op)
	if err := op.setPeer(to, s.inet6); err != nil {
		return err
	}
	op.buf = b
	err := s.rc.Write(op.sendFn)
	op.buf = nil
	switch {
	case err != nil:
		return err
	case op.errno != 0:
		return os.NewSyscallError("sendto", op.errno)
	}
	return nil
}

// setPeer stores to as the socket family's sockaddr.
func (op *dgramOp) setPeer(to netip.AddrPort, inet6 bool) error {
	ip := to.Addr()
	op.sa = syscall.RawSockaddrInet6{}
	pp := (*[2]byte)(unsafe.Pointer(&op.sa.Port))
	pp[0], pp[1] = byte(to.Port()>>8), byte(to.Port())
	if !inet6 {
		if ip = ip.Unmap(); !ip.Is4() {
			return &net.AddrError{Err: "non-IPv4 address", Addr: to.String()}
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&op.sa))
		sa4.Family, sa4.Addr = syscall.AF_INET, ip.As4()
		op.salen = syscall.SizeofSockaddrInet4
		return nil
	}
	op.sa.Family, op.sa.Addr = syscall.AF_INET6, ip.As16() // IPv4 as a mapped address
	if zone := ip.Zone(); zone != "" {
		if ifi, err := net.InterfaceByName(zone); err == nil {
			op.sa.Scope_id = uint32(ifi.Index)
		} else if id, err := strconv.Atoi(zone); err == nil {
			op.sa.Scope_id = uint32(id)
		}
	}
	op.salen = syscall.SizeofSockaddrInet6
	return nil
}

func (op *dgramOp) send(fd uintptr) bool {
	var p unsafe.Pointer
	if len(op.buf) > 0 {
		p = unsafe.Pointer(&op.buf[0])
	}
	for {
		_, _, e := syscall.RawSyscall6(syscall.SYS_SENDTO, fd, uintptr(p), uintptr(len(op.buf)), 0,
			uintptr(unsafe.Pointer(&op.sa)), uintptr(op.salen))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		op.errno = e
		return true
	}
}
