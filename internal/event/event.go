// Package event defines the NaradaBrokering event: the unit of information
// flow through the substrate. Events carry expressive power at multiple
// levels (transport, protocol, service, application); here that manifests as
// a typed envelope with routing metadata (topic, source, TTL), an NTP
// timestamp, free-form headers and an opaque payload whose interpretation is
// fixed by the event type (publish bodies, discovery requests/responses,
// advertisements, pings…).
package event

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"narada/internal/uuid"
	"narada/internal/wire"
)

// Type discriminates event payloads.
type Type uint8

// Event types used by the substrate and the discovery protocol.
const (
	TypeInvalid           Type = iota
	TypePublish                // application data on a topic
	TypeSubscribe              // subscription registration (client -> broker)
	TypeUnsubscribe            // subscription removal
	TypeAdvertisement          // BrokerAdvertisement body (broker -> BDN / topic)
	TypeDiscoveryRequest       // BrokerDiscoveryRequest body
	TypeDiscoveryResponse      // BrokerDiscoveryResponse body (UDP to requester)
	TypeDiscoveryAck           // BDN acknowledgement of a discovery request
	TypePing                   // UDP ping carrying the sender's timestamp
	TypePong                   // UDP ping reply echoing the request timestamp
	TypeLinkHello              // broker-to-broker link establishment
	TypeLinkHeartbeat          // broker link keepalive
	TypeControl                // substrate control messages
	typeMax
)

var typeNames = map[Type]string{
	TypePublish:           "publish",
	TypeSubscribe:         "subscribe",
	TypeUnsubscribe:       "unsubscribe",
	TypeAdvertisement:     "advertisement",
	TypeDiscoveryRequest:  "discovery-request",
	TypeDiscoveryResponse: "discovery-response",
	TypeDiscoveryAck:      "discovery-ack",
	TypePing:              "ping",
	TypePong:              "pong",
	TypeLinkHello:         "link-hello",
	TypeLinkHeartbeat:     "link-heartbeat",
	TypeControl:           "control",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("event.Type(%d)", uint8(t))
}

// Valid reports whether t is a defined event type.
func (t Type) Valid() bool { return t > TypeInvalid && t < typeMax }

// DefaultTTL is the hop budget for events disseminated through the broker
// network; generous enough for any of the paper's topologies (a five-broker
// chain needs 5) with headroom for larger deployments.
const DefaultTTL = 32

// Event is the envelope routed through the substrate.
type Event struct {
	Type      Type
	ID        uuid.UUID         // event identity (dedup, correlation)
	Topic     string            // '/'-separated routing topic; may be empty
	Source    string            // logical address of the originating entity
	Timestamp time.Time         // NTP UTC at creation
	TTL       uint8             // remaining hop budget
	Headers   map[string]string // free-form metadata
	Payload   []byte            // type-specific body
}

// New creates an event of the given type with a fresh ID and default TTL.
func New(t Type, topic string, payload []byte) *Event {
	return &Event{
		Type:    t,
		ID:      uuid.New(),
		Topic:   topic,
		TTL:     DefaultTTL,
		Payload: payload,
	}
}

// Trace-context headers. Every discovery-related frame (request, BDN
// ack/inject, broker fan-out, response, ping, pong) carries the request UUID,
// the originating node's identity and the dissemination hop count, so each
// process the request crosses can record its spans against the same trace and
// a collector can assemble the end-to-end picture.
const (
	HeaderTraceID     = "trace-id"     // request UUID keying the trace
	HeaderTraceOrigin = "trace-origin" // node that issued the request
	HeaderTraceHop    = "trace-hop"    // dissemination hops from the origin
)

// The role header of a LinkHello says who dials: a broker, to another broker
// or to a BDN alike, or a BDN member pulling a peer member's table.
const (
	HeaderRole = "role"
	RoleLink   = "link"
	RoleTable  = "table"
)

// SetTrace stamps the trace-context headers onto the event.
func (e *Event) SetTrace(id, origin string, hop uint8) {
	e.SetHeader(HeaderTraceID, id)
	e.SetHeader(HeaderTraceOrigin, origin)
	e.SetHeader(HeaderTraceHop, strconv.Itoa(int(hop)))
}

// Trace reads the trace-context headers. ok is false when the frame carries
// no trace context (pre-propagation peers, non-discovery traffic); a missing
// or malformed hop header reads as 0.
func (e *Event) Trace() (id, origin string, hop uint8, ok bool) {
	id = e.Header(HeaderTraceID)
	if id == "" {
		return "", "", 0, false
	}
	return id, e.Header(HeaderTraceOrigin), parseHop(e.Header(HeaderTraceHop)), true
}

// parseHop reads a hop-count header value; missing or malformed reads as 0.
func parseHop(s string) uint8 {
	if h, err := strconv.Atoi(s); err == nil && h >= 0 && h <= 255 {
		return uint8(h)
	}
	return 0
}

// Message-trace headers. A broker (or an instrumented publisher) that
// samples a publish stamps these so every hop downstream records its spans
// against the same trace — keyed by the event UUID, so no separate trace-id
// header is needed. Unsampled messages carry no headers at all: the sampling
// decision is made once, at publish, and the unsampled path never allocates.
const (
	HeaderMsgSampled = "msg-sampled" // "1" when the message is traced
	HeaderMsgOrigin  = "msg-origin"  // node that made the sampling decision
	HeaderMsgHop     = "msg-hop"     // broker hops from the origin
)

// SetMsgTrace marks the event as sampled for message-path tracing.
func (e *Event) SetMsgTrace(origin string, hop uint8) {
	e.SetHeader(HeaderMsgSampled, "1")
	e.SetHeader(HeaderMsgOrigin, origin)
	e.SetHeader(HeaderMsgHop, strconv.Itoa(int(hop)))
}

// MsgTrace reads the message-trace headers. sampled is false for the common
// unsampled message (possibly with a nil header map); a missing or malformed
// hop header reads as 0.
func (e *Event) MsgTrace() (origin string, hop uint8, sampled bool) {
	if !e.MsgSampled() {
		return "", 0, false
	}
	return e.Headers[HeaderMsgOrigin], parseHop(e.Headers[HeaderMsgHop]), true
}

// MsgSampled reports whether the event carries the sampled flag, without
// touching the header map when it is nil (the publish fast path).
func (e *Event) MsgSampled() bool {
	return e.Headers != nil && e.Headers[HeaderMsgSampled] == "1"
}

// Header returns a header value ("" when absent).
func (e *Event) Header(k string) string { return e.Headers[k] }

// SetHeader sets a header value, allocating the map on first use.
func (e *Event) SetHeader(k, v string) {
	if e.Headers == nil {
		e.Headers = make(map[string]string, 4)
	}
	e.Headers[k] = v
}

// Codec framing constants.
const (
	magic   byte = 0xB7 // "NaradaBrokering" frame marker
	version byte = 1
)

// Encode serialises the event with the wire codec. The returned frame is
// freshly allocated and owned by the caller; the Writer itself is pooled.
func Encode(e *Event) []byte {
	size := 64 + len(e.Topic) + len(e.Source) + len(e.Payload)
	for k, v := range e.Headers {
		size += len(k) + len(v) + 4
	}
	w := wire.GetWriter(size)
	EncodeTo(w, e)
	frame := w.Detach()
	w.Release()
	return frame
}

// Append serialises the event onto buf (truncated to zero length) and
// returns the extended slice. Unlike Encode it allocates only when buf's
// capacity is insufficient, which is what the broker's ref-counted frame
// pool relies on to keep the publish fan-out allocation-free.
func Append(buf []byte, e *Event) []byte {
	var w wire.Writer
	w.ResetWith(buf)
	EncodeTo(&w, e)
	return w.Bytes()
}

// EncodeTo serialises the event into an existing writer, letting callers
// that control the frame's lifecycle reuse buffers.
func EncodeTo(w *wire.Writer, e *Event) {
	w.Byte(magic)
	w.Byte(version)
	w.Byte(byte(e.Type))
	w.Bytes16([16]byte(e.ID))
	w.String(e.Topic)
	w.String(e.Source)
	w.Time(e.Timestamp)
	w.Byte(e.TTL)
	w.StringMap(e.Headers)
	w.BytesField(e.Payload)
}

// Decode parses an encoded event, validating framing and type, and copies it
// out of the frame: Parse, then View.Event. The two accept exactly the same
// frames because there is only the one walk.
func Decode(b []byte) (*Event, error) {
	v, err := Parse(b)
	if err != nil {
		return nil, err
	}
	return v.Event(), nil
}

// View is an encoded event parsed in place: the scalar fields by value, the
// variable-length ones as windows onto the frame it was parsed from. Nothing
// is copied or allocated, so Topic, Source, Payload and header values alias
// the frame and are valid only while the caller owns it unmodified — anything
// that outlives the frame must clone them. The one sanctioned in-place edit
// is the TTL byte at TTLOff, which is how a forwarding broker spends a hop
// without re-encoding.
type View struct {
	Type       Type
	ID         uuid.UUID
	Topic      string // aliases the frame
	Source     string // aliases the frame
	Timestamp  int64  // Unix nanoseconds; 0 when the event carries none
	TTL        uint8
	TTLOff     int    // offset of the TTL byte in the frame
	NumHeaders int    // pairs on the wire; a repeated key counts each time
	Payload    []byte // aliases the frame

	headers []byte // the encoded header map, count included
}

// Parse walks an encoded event once — framing, field bounds and limits, no
// trailing bytes, a defined type — and returns a View instead of materialising
// an Event. It is the codec's only walk of the layout; Decode is built on it.
func Parse(b []byte) (View, error) {
	r := wire.NewReader(b)
	if m := r.Byte(); r.Err() == nil && m != magic {
		return View{}, fmt.Errorf("event: bad magic 0x%02x", m)
	}
	if ver := r.Byte(); r.Err() == nil && ver != version {
		return View{}, fmt.Errorf("event: unsupported version %d", ver)
	}
	var v View
	v.Type = Type(r.Byte())
	v.ID = uuid.UUID(r.Bytes16())
	v.Topic = aliasString(r.StringSpan())
	v.Source = aliasString(r.StringSpan())
	v.Timestamp = r.Varint()
	v.TTLOff = r.Offset()
	v.TTL = r.Byte()
	headersOff := r.Offset()
	v.NumHeaders = r.SkipStringMap()
	v.headers = b[headersOff:r.Offset()]
	v.Payload = r.BytesSpan()
	if err := r.Finish(); err != nil {
		return View{}, fmt.Errorf("event: %w", err)
	}
	if !v.Type.Valid() {
		return View{}, fmt.Errorf("event: invalid type %d", v.Type)
	}
	return v, nil
}

// Event materialises the view: every field copied out of the frame, so the
// result outlives it and may be amended and re-encoded.
func (v *View) Event() *Event {
	e := &Event{
		Type:    v.Type,
		ID:      v.ID,
		Topic:   strings.Clone(v.Topic),
		Source:  strings.Clone(v.Source),
		TTL:     v.TTL,
		Headers: wire.NewReader(v.headers).StringMap(),
		Payload: append([]byte(nil), v.Payload...),
	}
	if v.Timestamp != 0 {
		e.Timestamp = time.Unix(0, v.Timestamp).UTC()
	}
	return e
}

// aliasString views b as a string without copying it.
func aliasString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Header looks a header up by scanning the encoded pairs ("" when absent); the
// value aliases the frame. Like the map Decode builds, a repeated key reads
// as its last occurrence.
func (v *View) Header(k string) string {
	// Parse validated every pair, so the re-walk cannot fail.
	r := wire.NewReader(v.headers)
	val := ""
	for n := r.Uvarint(); n > 0; n-- {
		key, span := r.StringSpan(), r.StringSpan()
		if string(key) == k {
			val = aliasString(span)
		}
	}
	return val
}

// Trace reads the trace-context headers in place, as Event.Trace reads them
// off the map; id and origin alias the frame.
func (v *View) Trace() (id, origin string, hop uint8, ok bool) {
	if v.NumHeaders == 0 {
		return "", "", 0, false
	}
	id = v.Header(HeaderTraceID)
	if id == "" {
		return "", "", 0, false
	}
	return id, v.Header(HeaderTraceOrigin), parseHop(v.Header(HeaderTraceHop)), true
}

// MsgSampled reports whether the frame carries the message-trace sampled flag.
func (v *View) MsgSampled() bool {
	return v.NumHeaders > 0 && v.Header(HeaderMsgSampled) == "1"
}

// MsgTrace reads the message-trace headers in place, as Event.MsgTrace reads
// them off the map; origin aliases the frame.
func (v *View) MsgTrace() (origin string, hop uint8, sampled bool) {
	if !v.MsgSampled() {
		return "", 0, false
	}
	return v.Header(HeaderMsgOrigin), parseHop(v.Header(HeaderMsgHop)), true
}
