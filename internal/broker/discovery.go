package broker

import (
	"strconv"
	"strings"

	"narada/internal/core"
	"narada/internal/event"
)

// udpLoop serves the broker's datagram endpoint: UDP pings (answered with
// pongs echoing the sender's timestamp) and discovery requests arriving
// directly, via multicast, or from a requester replaying its cached target
// set.
func (b *Broker) udpLoop() {
	defer b.wg.Done()
	for {
		payload, from, err := b.udp.Recv()
		if err != nil {
			return
		}
		v, err := event.Parse(payload)
		if err != nil {
			continue
		}
		switch v.Type {
		case event.TypePing:
			b.tel.framesControl.Inc()
			b.answerPing(&v, from)
		case event.TypeDiscoveryRequest:
			// The handler amends and re-encodes the request: it needs a copy.
			b.handleDiscoveryRequest(v.Event(), "", nil)
		default:
			// Other datagram traffic is not part of the protocol.
			b.tel.framesOther.Inc()
		}
	}
}

// answerPing echoes the ping's timestamp in a pong so the requester can
// compute the RTT purely from its own clock (paper §6). Pings and pongs
// travel over UDP for the §5.2 reasons: constant requester-side resources
// and loss-as-signal filtering of remote brokers. The ping is read in place:
// v aliases the datagram, which this call owns until it returns.
func (b *Broker) answerPing(v *event.View, from string) {
	ping, err := core.DecodePing(v.Payload)
	if err != nil {
		return
	}
	pong := &core.Pong{
		ID:        ping.ID,
		EchoSent:  ping.SentAt,
		Seq:       ping.Seq,
		Responder: b.cfg.LogicalAddress,
	}
	reply := event.New(event.TypePong, "", core.EncodePong(pong))
	reply.Source = b.cfg.LogicalAddress
	reply.Timestamp = b.now()
	// Pings sent by a discovery's refinement phase carry the request's trace
	// context; echo it on the pong and record the handling against the trace.
	if id, origin, hop, ok := v.Trace(); ok {
		reply.SetTrace(id, origin, hop)
		if b.tel.tracer != nil {
			// The trace store keeps both strings past the datagram.
			tr := reqTrace{b.tel.tracer.Trace(strings.Clone(id))}
			tr.event(b, "broker-ping", "seq", strconv.Itoa(int(ping.Seq)), "origin", strings.Clone(origin))
		}
	}
	_ = b.udp.Send(from, event.Encode(reply))
	b.tel.pings.Inc()
}

// handleDiscoveryRequest implements the broker side of paper §4–5: duplicate
// suppression by request UUID, network re-dissemination (so the request can
// reach every broker connected in the network), a policy gate, and the
// construction + UDP delivery of the discovery response.
//
// fromPeer names the link the request arrived on ("" for UDP/client/BDN
// ingress) so the flood does not echo straight back. set is the flush set of
// the connection reader handling the request (nil for UDP ingress): the
// flood leaves on it before the response is built.
func (b *Broker) handleDiscoveryRequest(ev *event.Event, fromPeer string, set *flushSet) {
	b.tel.framesDiscovery.Inc() // here, so no ingress can forget to count
	req, err := core.DecodeDiscoveryRequest(ev.Payload)
	if err != nil {
		return
	}
	// "Every broker keeps track of the last 1000 broker discovery requests
	// so that additional CPU/network cycles are not expended on previously
	// processed requests."
	if b.reqDedup.Seen(req.ID) {
		b.tel.discoveryDup.Inc()
		return
	}
	// Trace the request's passage through this broker under the context it
	// arrived with (or healed from its body); resolve the trace once.
	traceID, origin, _ := core.RequestTrace(ev, req)
	var tr reqTrace
	if b.tel.tracer != nil {
		tr = reqTrace{b.tel.tracer.Trace(traceID)}
	}

	// Propagate through the broker network before responding: dissemination
	// latency dominates discovery time (Figures 2/9/11), so forwarding first
	// lets downstream brokers overlap their work with ours; the forwards are
	// written (set.flush) before the response is built, not after it. The
	// forwarded copy carries an incremented hop count for diagnostics.
	if ev.TTL > 0 {
		links := b.linksExcept(fromPeer)
		if len(links) > 0 {
			// ev is this handler's own decoded copy and is not read again
			// below, so the forwarded frame is ev itself with a hop spent.
			fwdReq := *req
			fwdReq.Hops++
			ev.TTL--
			ev.Payload = core.EncodeDiscoveryRequest(&fwdReq)
			ev.SetTrace(traceID, origin, fwdReq.Hops)
			f := b.frames.encode(ev, int32(len(links)))
			for _, lk := range links {
				lk.out.sendData(f, set)
			}
			set.flush()
		}
		tr.event(b, "broker-fanout", "links", strconv.Itoa(len(links)),
			"hops", strconv.Itoa(int(req.Hops)), "origin", origin)
	}

	if !b.cfg.Policy.Permits(req) {
		b.tel.discoveryDenied.Inc()
		tr.event(b, "broker-denied", "requester", req.Requester)
		b.cfg.Logger.Debug("discovery request denied by policy",
			"requester", req.Requester, "realm", req.Realm)
		return
	}
	if req.ResponseAddr == "" {
		return
	}
	if b.cfg.ProcessingDelay > 0 {
		b.node.Clock().Sleep(b.cfg.ProcessingDelay)
	}

	resp := &core.DiscoveryResponse{
		RequestID: req.ID,
		Timestamp: b.now(),
		Broker:    b.Info(),
		Usage:     b.Usage(),
	}
	reply := event.New(event.TypeDiscoveryResponse, "", core.EncodeDiscoveryResponse(resp))
	reply.Source = b.cfg.LogicalAddress
	reply.Timestamp = resp.Timestamp
	reply.SetTrace(traceID, origin, req.Hops)
	// "The communication protocol used for transporting this response is
	// UDP" — sent from the broker's datagram endpoint to the requester.
	_ = b.udp.Send(req.ResponseAddr, event.Encode(reply))
	b.tel.discoveryAnswers.Inc()
	tr.event(b, "broker-respond", "to", req.ResponseAddr)
	b.cfg.Logger.Debug("discovery response sent",
		"requester", req.Requester, "to", req.ResponseAddr, "hops", req.Hops)
}
