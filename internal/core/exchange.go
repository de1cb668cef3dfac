package core

import (
	"time"

	"narada/internal/event"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/transport"
	"narada/internal/uuid"
)

// RequestTrace returns the trace context a discovery request travels under.
// Requests issued by instrumented requesters carry it in the event's headers;
// for anyone else (pre-propagation peers, bare test harnesses) it heals here
// from the body's request UUID and requester name, and is stamped onto ev so
// every frame derived from it carries the context downstream.
func RequestTrace(ev *event.Event, req *DiscoveryRequest) (traceID, origin string, hop uint8) {
	traceID, origin, hop, ok := ev.Trace()
	if !ok {
		traceID, origin, hop = req.ID.String(), req.Requester, 0
		ev.SetTrace(traceID, origin, hop)
	}
	return traceID, origin, hop
}

// RTT is one target's measured distance: the mean over the Count pongs that
// arrived (both zero when none did).
type RTT struct {
	Mean  time.Duration
	Count int
}

// MeasureRTT runs the paper's §6 exchange over one datagram endpoint: it
// sends k pings to every address in addrs ("this PING operation may be
// repeated multiple times to compute the average network Round Trip Time"),
// then collects pongs until the window closes or every ping sent has been
// answered. Each ping carries the sender's clock reading and each (id, seq)
// yields at most one sample, so the RTT needs no clock agreement and a
// duplicated pong cannot skew it; any other datagram landing on the endpoint
// (late discovery responses, pongs from an earlier run) is skipped. The result
// is parallel to addrs; an empty address is not pinged. source names the
// pinging node, and a non-empty traceID rides on every ping so the pinged
// brokers record their handling into the same cross-node trace.
func MeasureRTT(pc transport.PacketConn, clock ntptime.Clock, source, traceID string,
	addrs []string, k int, window time.Duration) []RTT {
	type probe struct {
		target int
		sent   []time.Time // by seq; zero once answered or when the send failed
	}
	out := make([]RTT, len(addrs))
	probes := make(map[uuid.UUID]*probe, len(addrs))
	outstanding := 0
	for i, addr := range addrs {
		if addr == "" {
			continue
		}
		id, p := uuid.New(), &probe{target: i, sent: make([]time.Time, k)}
		probes[id] = p
		for seq := range p.sent {
			now := clock.Now()
			ev := event.New(event.TypePing, "", EncodePing(&Ping{ID: id, SentAt: now, Seq: uint32(seq)}))
			ev.Source = source
			if traceID != "" {
				ev.SetTrace(traceID, source, 0)
			}
			if pc.Send(addr, event.Encode(ev)) == nil {
				p.sent[seq] = now
				outstanding++
			}
		}
	}

	deadline := clock.Now().Add(window)
	for outstanding > 0 {
		remaining := deadline.Sub(clock.Now())
		if remaining <= 0 {
			break
		}
		payload, _, err := pc.RecvTimeout(remaining)
		if err != nil {
			break
		}
		v, err := event.Parse(payload)
		if err != nil || v.Type != event.TypePong {
			continue
		}
		pong, err := DecodePong(v.Payload)
		if err != nil {
			continue
		}
		p := probes[pong.ID]
		if p == nil || pong.Seq >= uint32(len(p.sent)) || p.sent[pong.Seq].IsZero() {
			continue
		}
		out[p.target].Mean += max(clock.Now().Sub(p.sent[pong.Seq]), 0) // summed here, divided below
		out[p.target].Count++
		p.sent[pong.Seq] = time.Time{}
		outstanding--
	}
	for i := range out {
		if out[i].Count > 0 {
			out[i].Mean /= time.Duration(out[i].Count)
		}
	}
	return out
}

// phaseRecorder is the one place a discovery phase is timed: begin stamps the
// phase's start, end records its duration into the result's Breakdown and as
// one span on the request's trace (a nil trace records nothing). Phases run
// one after another, so the recorder holds the current one.
type phaseRecorder struct {
	clock  ntptime.Clock
	timing *Breakdown
	tr     *obs.Trace

	phase Phase
	start time.Time
}

func (r *phaseRecorder) begin(p Phase) { r.phase, r.start = p, r.clock.Now() }

func (r *phaseRecorder) end(attrs ...obs.Attr) {
	dur := r.clock.Now().Sub(r.start)
	r.timing.Set(r.phase, dur)
	r.tr.Span(r.phase.String(), r.start, dur, attrs...)
}
