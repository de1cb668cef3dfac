//go:build unix && !solaris && !aix && (!linux || 386)

package transport

import (
	"net"
	"syscall"
	"unsafe"
)

// rawWriter is realConn's non-blocking write where rawio_linux.go is not
// built: one writev(2) on the socket, which the runtime keeps in non-blocking
// mode, returning whatever the kernel took instead of parking until the
// socket drains. Guarded by the connection's writeMu.
type rawWriter struct {
	rc    syscall.RawConn // nil when the connection exposes no descriptor
	iov   []syscall.Iovec
	n     uintptr
	errno syscall.Errno
	fn    func(fd uintptr) bool // built once: a closure per call would allocate
}

func (w *rawWriter) init(c net.Conn) {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return
	}
	w.rc = rc
	w.fn = func(fd uintptr) bool {
		w.n, _, w.errno = syscall.Syscall(syscall.SYS_WRITEV, fd,
			uintptr(unsafe.Pointer(&w.iov[0])), uintptr(len(w.iov)))
		return true // done either way: never wait for the socket to drain
	}
}

// writev writes what the socket takes of bufs now and reports how much that
// was. A full socket is 0 bytes and no error.
func (w *rawWriter) writev(bufs [][]byte) (int, error) {
	if w.rc == nil {
		return 0, nil
	}
	for _, b := range bufs {
		if len(b) == 0 {
			continue
		}
		var v syscall.Iovec
		v.Base = &b[0]
		v.SetLen(len(b))
		w.iov = append(w.iov, v)
	}
	if len(w.iov) == 0 {
		return 0, nil
	}
	err := w.rc.Write(w.fn)
	clear(w.iov) // hold no payload past the call
	w.iov = w.iov[:0]
	if err != nil {
		return 0, translateNetErr(err)
	}
	switch w.errno {
	case 0:
		return int(w.n), nil
	case syscall.EAGAIN, syscall.EINTR:
		return 0, nil
	default:
		return 0, w.errno
	}
}
