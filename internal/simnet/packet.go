package simnet

import (
	"time"
)

// Packet is a received datagram.
type Packet struct {
	From    Addr
	Payload []byte
}

// PacketConn is an unreliable, unordered datagram endpoint (UDP semantics):
// sends may be silently lost on lossy inter-site paths, arrival order follows
// each packet's own delay, and a full receive buffer drops newest packets
// exactly as a saturated socket buffer would.
type PacketConn struct {
	net  *Network
	addr Addr

	in     chan Packet
	closed chan struct{}
}

const packetBuffer = 512

// ListenPacket opens a datagram endpoint at addr. A Port of 0 allocates one.
func (n *Network) ListenPacket(addr Addr) (*PacketConn, error) {
	if err := n.checkSite(addr); err != nil {
		return nil, err
	}
	if addr.Port == 0 {
		addr.Port = n.AllocPort()
	}
	pc := &PacketConn{
		net:    n,
		addr:   addr,
		in:     make(chan Packet, packetBuffer),
		closed: make(chan struct{}),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.packets[addr]; exists {
		return nil, ErrAddrInUse
	}
	n.packets[addr] = pc
	return pc, nil
}

// Addr returns the endpoint's bound address.
func (pc *PacketConn) Addr() Addr { return pc.addr }

// Send transmits a datagram to the destination endpoint. Loss and partitions
// are applied; a successful return means "handed to the network", never
// "delivered" — exactly UDP's contract.
func (pc *PacketConn) Send(to Addr, payload []byte) error {
	select {
	case <-pc.closed:
		return ErrClosed
	default:
	}
	n := pc.net
	if err := n.checkSite(to); err != nil {
		return err
	}
	n.mu.Lock()
	n.datagramsSent++
	n.mu.Unlock()
	if err := n.pathBlocked(pc.addr, to); err != nil {
		// Datagrams into a partition vanish silently, like real UDP.
		n.noteDrop()
		return nil
	}
	if p := n.lossProb(pc.addr.Site, to.Site); p > 0 && n.roll() < p {
		n.noteDrop()
		return nil
	}
	delay, err := n.oneWay(pc.addr.Site, to.Site, len(payload))
	if err != nil {
		return err
	}
	buf := append([]byte(nil), payload...)
	from := pc.addr
	copies := 1
	if pc.addr.Site != to.Site && n.dupProb > 0 && n.roll() < n.dupProb {
		copies = 2 // duplicated in flight; receivers must dedup
	}
	for i := 0; i < copies; i++ {
		d := delay
		if i > 0 {
			d += delay / 2 // the duplicate trails the original
		}
		go func(d time.Duration) {
			n.clock.Sleep(d)
			n.deliverPacket(to, Packet{From: from, Payload: buf})
		}(d)
	}
	return nil
}

func (n *Network) noteDrop() {
	n.mu.Lock()
	n.datagramsDropped++
	n.mu.Unlock()
}

func (n *Network) deliverPacket(to Addr, p Packet) {
	n.mu.Lock()
	pc, ok := n.packets[to]
	nodeDown := n.down[to.node()]
	n.mu.Unlock()
	if !ok || nodeDown {
		n.noteDrop()
		return
	}
	select {
	case pc.in <- p:
	case <-pc.closed:
		n.noteDrop()
	default:
		// Receive buffer overflow: drop, as a kernel UDP buffer would.
		n.noteDrop()
	}
}

// recv is the one receive wait, for datagrams and stream frames alike: an item
// already queued wins over closure (what was in flight is still delivered),
// and a nil expire never fires.
func recv[T any](in <-chan T, closed <-chan struct{}, expire <-chan time.Time) (T, error) {
	var none T
	select {
	case v := <-in:
		return v, nil
	case <-closed:
		select {
		case v := <-in:
			return v, nil
		default:
			return none, ErrClosed
		}
	case <-expire:
		return none, ErrTimeout
	}
}

// Recv blocks until a datagram arrives or the endpoint closes.
func (pc *PacketConn) Recv() (Packet, error) { return recv(pc.in, pc.closed, nil) }

// RecvTimeout blocks for at most d of model time.
func (pc *PacketConn) RecvTimeout(d time.Duration) (Packet, error) {
	return recv(pc.in, pc.closed, pc.net.clock.After(d))
}

// Close releases the endpoint and leaves all multicast groups.
func (pc *PacketConn) Close() error {
	n := pc.net
	n.mu.Lock()
	if _, ok := n.packets[pc.addr]; !ok {
		n.mu.Unlock()
		return ErrClosed
	}
	delete(n.packets, pc.addr)
	for k, members := range n.groups {
		delete(members, pc.addr)
		if len(members) == 0 {
			delete(n.groups, k)
		}
	}
	n.mu.Unlock()
	close(pc.closed)
	return nil
}

// JoinGroup subscribes the endpoint to a multicast group. Group traffic is
// realm-scoped: only members whose site shares the sender's realm receive it,
// reproducing the paper's "multicast was disabled for network traffic outside
// the lab".
func (pc *PacketConn) JoinGroup(group string) {
	n := pc.net
	realm := n.realmOf(pc.addr.Site)
	key := groupKey{realm: realm, group: group}
	n.mu.Lock()
	defer n.mu.Unlock()
	members, ok := n.groups[key]
	if !ok {
		members = make(map[Addr]*PacketConn)
		n.groups[key] = members
	}
	members[pc.addr] = pc
}

// LeaveGroup removes the endpoint from a multicast group.
func (pc *PacketConn) LeaveGroup(group string) {
	n := pc.net
	key := groupKey{realm: n.realmOf(pc.addr.Site), group: group}
	n.mu.Lock()
	defer n.mu.Unlock()
	if members, ok := n.groups[key]; ok {
		delete(members, pc.addr)
		if len(members) == 0 {
			delete(n.groups, key)
		}
	}
}

// SendGroup multicasts a datagram to every member of the group within the
// sender's realm (excluding the sender itself). Per-member loss and delay
// apply independently.
func (pc *PacketConn) SendGroup(group string, payload []byte) error {
	select {
	case <-pc.closed:
		return ErrClosed
	default:
	}
	n := pc.net
	key := groupKey{realm: n.realmOf(pc.addr.Site), group: group}
	n.mu.Lock()
	targets := make([]Addr, 0, len(n.groups[key]))
	for a := range n.groups[key] {
		if a != pc.addr {
			targets = append(targets, a)
		}
	}
	n.mu.Unlock()
	for _, to := range targets {
		if err := pc.Send(to, payload); err != nil {
			return err
		}
	}
	return nil
}
