package transport

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"narada/internal/ntptime"
	"narada/internal/simnet"
)

// SimNode adapts a simnet host to the Node interface. Each SimNode carries
// its own (possibly skewed) clock, independent of the network's true clock.
type SimNode struct {
	net   *simnet.Network
	site  string
	host  string
	clock ntptime.Clock
}

// NewSimNode creates a node named host at the given simulator site. skew is
// the node's hardware-clock error against the network's true clock.
func NewSimNode(n *simnet.Network, site, host string, skew time.Duration) *SimNode {
	return &SimNode{net: n, site: site, host: host, clock: n.NodeClock(skew)}
}

// Site returns the node's simulator site.
func (s *SimNode) Site() string { return s.site }

// Host returns the node's name within its site.
func (s *SimNode) Host() string { return s.host }

// Clock implements Node.
func (s *SimNode) Clock() ntptime.Clock { return s.clock }

// FormatSimAddr renders a simnet address as transport address string.
func FormatSimAddr(a simnet.Addr) string { return a.String() }

// ParseSimAddr parses "site/host:port".
func ParseSimAddr(s string) (simnet.Addr, error) {
	slash := strings.IndexByte(s, '/')
	colon := strings.LastIndexByte(s, ':')
	if slash < 0 || colon < slash {
		return simnet.Addr{}, fmt.Errorf("transport: bad sim address %q", s)
	}
	port, err := strconv.Atoi(s[colon+1:])
	if err != nil {
		return simnet.Addr{}, fmt.Errorf("transport: bad port in %q", s)
	}
	return simnet.Addr{Site: s[:slash], Host: s[slash+1 : colon], Port: port}, nil
}

// translateSimErr maps simnet errors onto the transport error vocabulary.
func translateSimErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, simnet.ErrClosed):
		return ErrClosed
	case errors.Is(err, simnet.ErrTimeout):
		return ErrTimeout
	default:
		return err
	}
}

// ListenPacket implements Node.
func (s *SimNode) ListenPacket(port int) (PacketConn, error) {
	pc, err := s.net.ListenPacket(simnet.Addr{Site: s.site, Host: s.host, Port: port})
	if err != nil {
		return nil, err
	}
	return &simPacketConn{pc: pc}, nil
}

// Listen implements Node.
func (s *SimNode) Listen(port int) (Listener, error) {
	l, err := s.net.Listen(simnet.Addr{Site: s.site, Host: s.host, Port: port})
	if err != nil {
		return nil, err
	}
	return &simListener{l: l}, nil
}

// Dial implements Node.
func (s *SimNode) Dial(addr string) (Conn, error) {
	to, err := ParseSimAddr(addr)
	if err != nil {
		return nil, err
	}
	c, err := s.net.Dial(simnet.Addr{Site: s.site, Host: s.host}, to)
	if err != nil {
		return nil, translateSimErr(err)
	}
	return &simConn{c: c}, nil
}

type simPacketConn struct{ pc *simnet.PacketConn }

func (p *simPacketConn) Send(to string, payload []byte) error {
	addr, err := ParseSimAddr(to)
	if err != nil {
		return err
	}
	return translateSimErr(p.pc.Send(addr, payload))
}

func (p *simPacketConn) Recv() ([]byte, string, error) {
	pkt, err := p.pc.Recv()
	if err != nil {
		return nil, "", translateSimErr(err)
	}
	return pkt.Payload, FormatSimAddr(pkt.From), nil
}

func (p *simPacketConn) RecvTimeout(d time.Duration) ([]byte, string, error) {
	pkt, err := p.pc.RecvTimeout(d)
	if err != nil {
		return nil, "", translateSimErr(err)
	}
	return pkt.Payload, FormatSimAddr(pkt.From), nil
}

func (p *simPacketConn) LocalAddr() string { return FormatSimAddr(p.pc.Addr()) }

func (p *simPacketConn) JoinGroup(group string) error {
	p.pc.JoinGroup(group)
	return nil
}

func (p *simPacketConn) LeaveGroup(group string) error {
	p.pc.LeaveGroup(group)
	return nil
}

func (p *simPacketConn) SendGroup(group string, payload []byte) error {
	return translateSimErr(p.pc.SendGroup(group, payload))
}

func (p *simPacketConn) Close() error { return translateSimErr(p.pc.Close()) }

type simConn struct{ c *simnet.Conn }

func (c *simConn) Send(payload []byte) error { return translateSimErr(c.c.Send(payload)) }

func (c *simConn) SendBatch(frames [][]byte) error {
	_, err := c.WriteBatch(frames, 0, true)
	return err
}

// WriteBatch implements Conn. simnet carries frames, not bytes: a call sends
// whole frames, a non-blocking one stops at the first frame the transmit
// queue has no room for, and so skip always falls on a frame boundary.
func (c *simConn) WriteBatch(frames [][]byte, skip int, wait bool) (int, error) {
	n := 0
	for _, p := range frames {
		size := PrefixLen + len(p)
		if skip >= size {
			skip -= size
			continue
		}
		if wait {
			if err := c.c.Send(p); err != nil {
				return n, translateSimErr(err)
			}
		} else if sent, err := c.c.TrySend(p); !sent {
			return n, translateSimErr(err)
		}
		n += size
	}
	return n, nil
}

func (c *simConn) Recv() ([]byte, error) {
	b, err := c.c.Recv()
	return b, translateSimErr(err)
}

func (c *simConn) RecvTimeout(d time.Duration) ([]byte, error) {
	b, err := c.c.RecvTimeout(d)
	return b, translateSimErr(err)
}

// RecvInto implements Conn with the copy simnet made at send, which the
// caller adopts.
func (c *simConn) RecvInto([]byte) ([]byte, error) { return c.Recv() }

func (c *simConn) FrameBuffered() bool { return c.c.Buffered() }
func (c *simConn) LocalAddr() string   { return FormatSimAddr(c.c.LocalAddr()) }
func (c *simConn) RemoteAddr() string  { return FormatSimAddr(c.c.RemoteAddr()) }
func (c *simConn) Close() error        { return translateSimErr(c.c.Close()) }

type simListener struct{ l *simnet.Listener }

func (l *simListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, translateSimErr(err)
	}
	return &simConn{c: c}, nil
}

func (l *simListener) Addr() string { return FormatSimAddr(l.l.Addr()) }
func (l *simListener) Close() error { return translateSimErr(l.l.Close()) }
