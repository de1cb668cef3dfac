//go:build !unix || solaris || aix

package transport

import "net"

// rawWriter has no non-blocking write here (no writev in package syscall): every non-blocking WriteBatch
// writes nothing, and callers fall back to a blocking one.
type rawWriter struct{}

func (w *rawWriter) init(net.Conn) {}

func (w *rawWriter) writev([][]byte) (int, error) { return 0, nil }
