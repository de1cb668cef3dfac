// Package transport abstracts the communication substrate so that brokers,
// BDNs and discovery clients run unchanged over the in-process WAN simulator
// (internal/simnet) or over real TCP/UDP sockets.
//
// Addresses are opaque strings: "site/host:port" in the simulator,
// "ip:port" for real sockets. Two delivery services mirror the paper's
// transport usage:
//
//   - PacketConn: unreliable datagrams (UDP) — discovery responses, pings
//     and multicast fallback;
//   - Conn/Listener: reliable ordered message frames (TCP) — client/broker
//     connections, broker links, BDN registrations.
package transport

import (
	"errors"
	"time"

	"narada/internal/ntptime"
)

// Errors shared by all transports. Implementations wrap or translate their
// native errors into these.
var (
	ErrClosed  = errors.New("transport: endpoint closed")
	ErrTimeout = errors.New("transport: timeout")
)

// PacketConn is an unreliable datagram endpoint.
type PacketConn interface {
	// Send transmits one datagram; success means handed to the network.
	Send(to string, payload []byte) error
	// Recv blocks for the next datagram.
	Recv() (payload []byte, from string, err error)
	// RecvTimeout blocks for at most d (in the node clock's timescale);
	// expiry returns ErrTimeout.
	RecvTimeout(d time.Duration) (payload []byte, from string, err error)
	// LocalAddr returns the address peers should reply to.
	LocalAddr() string
	// JoinGroup subscribes to a multicast group; SendGroup multicasts to it.
	// Multicast scope is administratively limited (a realm in the simulator,
	// TTL-limited IP multicast for real sockets).
	JoinGroup(group string) error
	LeaveGroup(group string) error
	SendGroup(group string, payload []byte) error
	Close() error
}

// Conn is a reliable, ordered, message-framed connection.
type Conn interface {
	Send(payload []byte) error
	Recv() ([]byte, error)
	RecvTimeout(d time.Duration) ([]byte, error)
	LocalAddr() string
	RemoteAddr() string
	Close() error
}

// BatchSender is an optional Conn capability: transmit several frames in one
// operation (a single vectored write on real sockets). The frames slice and
// its buffers are only borrowed for the duration of the call.
type BatchSender interface {
	SendBatch(frames [][]byte) error
}

// BatchWriter is the BatchSender that can also write without blocking and
// resume a batch part-way; broker egress queues type-assert for it and fall
// back to per-frame Send. WriteBatch writes frames, each behind its length
// prefix, starting skip bytes into that stream (bytes an earlier call already
// wrote), and returns how many bytes this call wrote. With wait it blocks
// until all are written, as SendBatch does. Without it makes at most one
// non-blocking write and returns what the socket took — possibly nothing,
// with a nil error, when the socket is full or another write is in progress.
type BatchWriter interface {
	BatchSender
	WriteBatch(frames [][]byte, skip int, wait bool) (int, error)
}

// FrameReader is an optional Conn capability: receive the next frame into
// storage the caller owns. The frame is returned in buf's backing array when
// its capacity suffices (buf's length and contents are ignored), otherwise in
// a freshly allocated slice the caller adopts. Receive loops that recycle
// frame buffers type-assert for it and fall back to Recv. FrameBuffered
// reports whether the next frame is already whole in the receive buffer, so
// that the next receive returns without reading the socket.
type FrameReader interface {
	RecvInto(buf []byte) ([]byte, error)
	FrameBuffered() bool
}

// Listener accepts incoming Conns.
type Listener interface {
	Accept() (Conn, error)
	Addr() string
	Close() error
}

// Node is one process's transport stack: its clock plus factories for
// endpoints bound to the process's network identity.
type Node interface {
	// ListenPacket opens a datagram endpoint; port 0 auto-allocates.
	ListenPacket(port int) (PacketConn, error)
	// Listen opens a stream listener; port 0 auto-allocates.
	Listen(port int) (Listener, error)
	// Dial connects to a listener address.
	Dial(addr string) (Conn, error)
	// Clock is the node's local clock (possibly skewed and/or scaled).
	Clock() ntptime.Clock
}
