package broker

import (
	"fmt"

	"narada/internal/obs"

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
// connection dies (BDN restart, heartbeat teardown, partition) a supervise
// runner redials it and the fresh dial re-sends the advertisement, so the
// broker reappears at the BDN without operator action.
func (b *Broker) RegisterWithBDN(addr string) error {
	if b.cfg.Supervise != nil {
		return b.superviseDial(SuperviseBDN, addr, b.dialRegistration)
	}
	_, err := b.dialRegistration(addr)
	return err
}

// dialRegistration performs one registration dial: hello, advertisement,
// then a pump goroutine that accepts BDN request injections and (with
// HeartbeatInterval set) exchanges keepalives so a silently dead BDN is
// detected — registration links previously had no liveness at all. The
// returned channel closes when the registration session ends.
func (b *Broker) dialRegistration(addr string) (<-chan struct{}, error) {
	conn, err := b.node.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello := event.New(event.TypeLinkHello, "", nil)
	hello.Source = b.cfg.LogicalAddress
	hello.SetHeader(helloRoleHeader, roleLink) // from the BDN's view we are a broker link
	hello.Timestamp = b.now()
	if err := conn.Send(event.Encode(hello)); err != nil {
		_ = conn.Close()
		return nil, err
	}

	if err := conn.Send(event.Encode(b.advertisement())); err != nil {
		_ = conn.Close()
		return nil, err
	}

	lk := &link{peer: "bdn:" + addr, role: roleBDN, conn: conn}
	lk.out = b.newEgress(conn, "link")
	if !b.registerLink(lk) {
		_ = conn.Close()
		return nil, errClosed
	}
	b.startEgress(lk.out)
	b.connectionsChanged()
	b.cfg.Journal.Emit(obs.EventLinkUp, lk.peer, "role="+lk.role)
	b.noteAdvertised(lk.peer)
	lk.touch(b.node.Clock().Now())
	if b.cfg.HeartbeatInterval > 0 {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			b.heartbeatLink(lk)
		}()
	}

	done := make(chan struct{})
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		defer close(done)
		defer func() {
			lk.out.close()
			_ = conn.Close()
			b.mu.Lock()
			wasCurrent := b.links[lk.peer] == lk
			if wasCurrent {
				delete(b.links, lk.peer)
				b.rebuildLinkSnap()
			}
			b.mu.Unlock()
			if wasCurrent {
				b.cfg.Journal.Emit(obs.EventLinkDown, lk.peer, "role="+lk.role)
			}
			b.connectionsChanged()
		}()
		for {
			frame, err := conn.Recv()
			if err != nil {
				return
			}
			if b.cfg.HeartbeatInterval > 0 { // only the heartbeat reads lastRecv
				lk.touch(b.node.Clock().Now())
			}
			ev, err := event.Decode(frame)
			if err != nil {
				b.tel.framesMalformed.Inc()
				continue
			}
			switch ev.Type {
			case event.TypeDiscoveryRequest:
				// BDN injection: fromPeer is this BDN connection so the
				// flood covers every true broker link.
				b.handleDiscoveryRequest(ev, lk.peer)
			case event.TypeLinkHeartbeat:
				// BDN's keepalive echo; the touch above is the point.
				b.tel.framesControl.Inc()
			}
		}
	}()
	return done, nil
}

// PublishAdvertisement disseminates this broker's advertisement on the public
// topic all BDNs subscribe to (paper §2.3, second form) — useful when the
// broker does not know any BDN address directly.
func (b *Broker) PublishAdvertisement() error {
	adv := &core.Advertisement{Broker: b.Info(), IssuedAt: b.now(), TTL: b.cfg.AdvertiseTTL}
	return b.Publish(topics.AdvertisementTopic, core.EncodeAdvertisement(adv))
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
