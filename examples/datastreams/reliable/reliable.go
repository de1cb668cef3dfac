// Package reliable implements the NaradaBrokering reliable-delivery service
// the paper cites among the substrate's capabilities (reference [5], "A
// Scheme for Reliable Delivery of Events in Distributed Middleware
// Systems"): publishers assign per-topic sequence numbers and retain events
// until subscribers acknowledge them over the substrate itself; subscribers
// de-duplicate, re-order and acknowledge — so events survive transient
// subscriber disconnects and message loss.
package reliable

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"narada/internal/wire"
)

// AckTopicPrefix is where acknowledgements travel: one topic per publisher
// source, so a publisher subscribes to exactly its own ack stream.
const AckTopicPrefix = "Services/Reliable/Ack"

// AckTopic returns the acknowledgement topic for a publisher source.
func AckTopic(source string) string { return AckTopicPrefix + "/" + source }

// Envelope wraps an application payload with reliable-delivery metadata.
type Envelope struct {
	Source  string // publisher identity
	Topic   string // application topic
	Seq     uint64 // 1-based per (source, topic) sequence number
	Payload []byte
}

// EncodeEnvelope serialises an envelope.
func EncodeEnvelope(e *Envelope) []byte {
	w := wire.NewWriter(32 + len(e.Payload))
	w.String(e.Source)
	w.String(e.Topic)
	w.Uvarint(e.Seq)
	w.BytesField(e.Payload)
	return w.Bytes()
}

// DecodeEnvelope parses an envelope.
func DecodeEnvelope(b []byte) (*Envelope, error) {
	r := wire.NewReader(b)
	e := &Envelope{
		Source:  r.String(),
		Topic:   r.String(),
		Seq:     r.Uvarint(),
		Payload: r.BytesField(),
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("reliable: envelope: %w", err)
	}
	if e.Seq == 0 {
		return nil, errors.New("reliable: envelope: zero sequence")
	}
	return e, nil
}

// Ack acknowledges one delivered envelope.
type Ack struct {
	Source string
	Topic  string
	Seq    uint64
}

// EncodeAck serialises an acknowledgement.
func EncodeAck(a *Ack) []byte {
	w := wire.NewWriter(32)
	w.String(a.Source)
	w.String(a.Topic)
	w.Uvarint(a.Seq)
	return w.Bytes()
}

// DecodeAck parses an acknowledgement.
func DecodeAck(b []byte) (*Ack, error) {
	r := wire.NewReader(b)
	a := &Ack{Source: r.String(), Topic: r.String(), Seq: r.Uvarint()}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("reliable: ack: %w", err)
	}
	return a, nil
}

// Sequencer assigns per-topic sequence numbers and tracks unacknowledged
// events for redelivery. It is transport-agnostic: the owner feeds acks in
// and asks which envelopes are due for retransmission.
type Sequencer struct {
	source string

	mu      sync.Mutex
	nextSeq map[string]uint64 // topic -> next sequence to assign
	pending map[pendingKey]*pendingEvent
}

type pendingKey struct {
	topic string
	seq   uint64
}

type pendingEvent struct {
	env      *Envelope
	lastSent time.Time
	attempts int
}

// NewSequencer creates a publisher-side sequencer.
func NewSequencer(source string) *Sequencer {
	return &Sequencer{
		source:  source,
		nextSeq: make(map[string]uint64),
		pending: make(map[pendingKey]*pendingEvent),
	}
}

// Wrap assigns the next sequence number for the topic and records the
// envelope as pending (sent at now).
func (s *Sequencer) Wrap(topic string, payload []byte, now time.Time) *Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq[topic]++
	env := &Envelope{
		Source:  s.source,
		Topic:   topic,
		Seq:     s.nextSeq[topic],
		Payload: append([]byte(nil), payload...),
	}
	s.pending[pendingKey{topic, env.Seq}] = &pendingEvent{
		env: env, lastSent: now, attempts: 1,
	}
	return env
}

// Acknowledge clears a pending envelope; it reports whether it was pending.
func (s *Sequencer) Acknowledge(topic string, seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := pendingKey{topic, seq}
	if _, ok := s.pending[k]; !ok {
		return false
	}
	delete(s.pending, k)
	return true
}

// Due returns envelopes unacknowledged for at least the redelivery interval,
// stamping them as resent at now. Envelopes exceeding maxAttempts are
// dropped and returned in the second slice (dead letters).
func (s *Sequencer) Due(now time.Time, redeliverAfter time.Duration, maxAttempts int) (resend, dead []*Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, p := range s.pending {
		if now.Sub(p.lastSent) < redeliverAfter {
			continue
		}
		if maxAttempts > 0 && p.attempts >= maxAttempts {
			dead = append(dead, p.env)
			delete(s.pending, k)
			continue
		}
		p.attempts++
		p.lastSent = now
		resend = append(resend, p.env)
	}
	return resend, dead
}

// Pending returns the number of unacknowledged envelopes.
func (s *Sequencer) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Reorderer is the subscriber side: it de-duplicates envelopes and releases
// them strictly in sequence order per (source, topic), buffering gaps.
type Reorderer struct {
	mu        sync.Mutex
	delivered map[streamKey]uint64               // highest contiguous seq released
	buffered  map[streamKey]map[uint64]*Envelope // out-of-order stash
}

type streamKey struct {
	source string
	topic  string
}

// NewReorderer creates a subscriber-side reorderer.
func NewReorderer() *Reorderer {
	return &Reorderer{
		delivered: make(map[streamKey]uint64),
		buffered:  make(map[streamKey]map[uint64]*Envelope),
	}
}

// Offer feeds one received envelope and returns every envelope now
// releasable in order (possibly none for duplicates or gaps).
func (r *Reorderer) Offer(env *Envelope) []*Envelope {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := streamKey{env.Source, env.Topic}
	high := r.delivered[k]
	if env.Seq <= high {
		return nil // duplicate of something already released
	}
	stash, ok := r.buffered[k]
	if !ok {
		stash = make(map[uint64]*Envelope)
		r.buffered[k] = stash
	}
	if _, dup := stash[env.Seq]; dup {
		return nil
	}
	stash[env.Seq] = env

	var out []*Envelope
	for {
		next, ok := stash[high+1]
		if !ok {
			break
		}
		delete(stash, high+1)
		high++
		out = append(out, next)
	}
	r.delivered[k] = high
	if len(stash) == 0 {
		delete(r.buffered, k)
	}
	return out
}

// Buffered returns the number of out-of-order envelopes held back.
func (r *Reorderer) Buffered() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, stash := range r.buffered {
		n += len(stash)
	}
	return n
}
