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
//     connections, broker links, BDN registrations. Both transports implement
//     all of Conn — batched, non-blocking and receive-into calls included —
//     so a broker runs the same receive and write code on either.
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
	BatchSender
	// WriteBatch writes frames, each behind its PrefixLen-byte length prefix,
	// starting skip bytes into that stream (bytes an earlier call already
	// wrote), and returns how many bytes this call wrote. With wait it blocks
	// until all are written, as SendBatch does; without, it writes only what
	// there is room for now — possibly nothing, with a nil error, when the
	// connection is full or another write is in progress. simnet, which
	// carries whole frames, only ever stops and resumes on a frame boundary.
	WriteBatch(frames [][]byte, skip int, wait bool) (int, error)
	Recv() ([]byte, error)
	RecvTimeout(d time.Duration) ([]byte, error)
	// RecvInto receives the next frame into storage the caller owns when it
	// can: in buf's backing array when its capacity suffices (buf's length
	// and contents are ignored, and a receive may write anywhere up to its
	// capacity), otherwise in a slice the caller adopts (simnet always
	// returns the copy it made at send).
	RecvInto(buf []byte) ([]byte, error)
	// FrameBuffered reports whether the next frame has already arrived
	// whole, so that the next receive returns without waiting.
	FrameBuffered() bool
	LocalAddr() string
	RemoteAddr() string
	Close() error
}

// BatchSender transmits several frames in one operation (a single vectored
// write on real sockets). The frames slice and its buffers are only borrowed
// for the duration of the call.
type BatchSender interface {
	SendBatch(frames [][]byte) error
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
