//go:build !linux || 386

package transport

import (
	"net"
	"net/netip"
)

// connIO is a stream's reader and vectored writer: the connection's own
// calls, and for a non-blocking write the platform's rawWriter.
type connIO struct {
	c   net.Conn
	raw rawWriter
}

func (s *connIO) init(c net.Conn) {
	s.c = c
	s.raw.init(c)
}

// scatterRead is false here: readv reads into its first buffer only.
const scatterRead = false

// readv reads into the first of bufs, which is not empty: without a raw
// readv there is no read-ahead behind a frame's own storage.
func (s *connIO) readv(bufs ...[]byte) (int, error) { return s.c.Read(bufs[0]) }

// writev writes bufs. With wait it blocks until every byte is written;
// without, it writes what the socket takes now, possibly nothing.
func (s *connIO) writev(bufs [][]byte, wait bool) (int, error) {
	if !wait {
		return s.raw.writev(bufs)
	}
	n, err := (*net.Buffers)(&bufs).WriteTo(s.c)
	return int(n), err
}

// udpIO is a datagram socket's receive and send.
type udpIO struct{ uc *net.UDPConn }

func (s *udpIO) init(uc *net.UDPConn) { s.uc = uc }

func (s *udpIO) readFrom(b []byte) (int, string, error) {
	n, from, err := s.uc.ReadFromUDP(b)
	if err != nil {
		return 0, "", err
	}
	return n, from.String(), nil
}

func (s *udpIO) writeTo(b []byte, to netip.AddrPort) error {
	_, err := s.uc.WriteToUDPAddrPort(b, to)
	return err
}
