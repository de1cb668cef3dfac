package broker

import (
	"fmt"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/topics"
)

// RegisterWithBDN advertises this broker to a BDN (paper §2.1–2.3, first
// dissemination form: "sending this advertisement directly to the BDNs that
// are listed in the broker's configuration file") and keeps the connection
// open: the BDN uses it as one of its "active concurrent connections to one
// or more brokers" for injecting discovery requests into the network. With
// Config.Supervise set the registration becomes self-healing: when the
// connection dies (BDN restart, heartbeat teardown, partition) it is
// redialed and the fresh dial re-sends the advertisement, so the
// broker reappears at the BDN without operator action.
func (b *Broker) RegisterWithBDN(addr string) error {
	return b.superviseDial(SuperviseBDN, addr, b.dialRegistration)
}

// dialRegistration performs one registration dial: hello (from the BDN's view
// we are a broker link), advertisement, then the same link session every
// other link runs — serveLink accepts the BDN's request injections and, with
// HeartbeatInterval set, exchanges keepalives so a silently dead BDN is
// detected. The returned channel closes when the registration session ends.
func (b *Broker) dialRegistration(addr string) (<-chan struct{}, error) {
	conn, err := b.node.Dial(addr)
	if err != nil {
		return nil, err
	}
	for _, frame := range [][]byte{b.helloFrame(), event.Encode(b.advertisement())} {
		if err := conn.Send(frame); err != nil {
			_ = conn.Close()
			return nil, err
		}
	}
	peer := "bdn:" + addr
	b.noteAdvertised(peer)
	return b.goServeLink(&link{peer: peer, role: roleBDN, conn: conn}), nil
}

// PublishAdvertisement disseminates this broker's advertisement on the public
// topic all BDNs subscribe to (paper §2.3, second form) — useful when the
// broker does not know any BDN address directly.
func (b *Broker) PublishAdvertisement() error {
	return b.Publish(topics.AdvertisementTopic, b.advertisement().Payload)
}

// JoinNetwork adds this broker to an existing broker network the way the
// paper prescribes for new brokers ("an entity may wish to add a broker to
// this network; in both these cases it is essential for the entity to
// discover a broker"): run the discovery scheme, link to the selected
// nearest broker, and return its info.
func (b *Broker) JoinNetwork(d *core.Discoverer) (core.BrokerInfo, error) {
	res, err := d.Discover()
	if err != nil {
		return core.BrokerInfo{}, fmt.Errorf("broker %s: joining: %w", b.cfg.LogicalAddress, err)
	}
	addr := res.Selected.Endpoint("tcp")
	if addr == "" {
		return core.BrokerInfo{}, fmt.Errorf("broker %s: discovered %s advertises no tcp endpoint",
			b.cfg.LogicalAddress, res.Selected.LogicalAddress)
	}
	if err := b.LinkTo(addr); err != nil {
		return core.BrokerInfo{}, fmt.Errorf("broker %s: linking to discovered %s: %w",
			b.cfg.LogicalAddress, res.Selected.LogicalAddress, err)
	}
	return res.Selected, nil
}
