package reliable

import (
	"sync"
	"time"

	"narada/internal/broker"
	"narada/internal/event"
	"narada/internal/ntptime"
	"narada/internal/transport"
)

// Publisher publishes reliably through a broker client: every event carries
// a sequence number, unacknowledged events are redelivered, and events that
// exhaust their attempts surface on the DeadLetters channel.
type Publisher struct {
	client *broker.Client
	clock  ntptime.Clock
	seq    *Sequencer

	redeliverAfter time.Duration
	maxAttempts    int

	deadLetters chan *Envelope
	closed      chan struct{}
	once        sync.Once
	wg          sync.WaitGroup
}

// PublisherConfig parameterises a reliable publisher.
type PublisherConfig struct {
	// Source is the publisher's identity (ack routing key).
	Source string
	// RedeliverAfter is the unacknowledged-event retransmission interval
	// (<= 0 means 2 s).
	RedeliverAfter time.Duration
	// MaxAttempts bounds deliveries per event before dead-lettering
	// (<= 0 means 5).
	MaxAttempts int
}

// NewPublisher wraps an existing broker client. The client must remain
// dedicated to this publisher (its event stream is consumed here).
func NewPublisher(node transport.Node, client *broker.Client, cfg PublisherConfig) (*Publisher, error) {
	if cfg.RedeliverAfter <= 0 {
		cfg.RedeliverAfter = 2 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	p := &Publisher{
		client:         client,
		clock:          node.Clock(),
		seq:            NewSequencer(cfg.Source),
		redeliverAfter: cfg.RedeliverAfter,
		maxAttempts:    cfg.MaxAttempts,
		deadLetters:    make(chan *Envelope, 64),
		closed:         make(chan struct{}),
	}
	if err := client.Subscribe(AckTopic(cfg.Source)); err != nil {
		return nil, err
	}
	p.wg.Add(2)
	go p.ackLoop()
	go p.redeliverLoop()
	return p, nil
}

// Publish sends one payload reliably on the topic.
func (p *Publisher) Publish(topic string, payload []byte) error {
	env := p.seq.Wrap(topic, payload, p.clock.Now())
	return p.client.Publish(topic, EncodeEnvelope(env))
}

// Pending returns the number of unacknowledged events.
func (p *Publisher) Pending() int { return p.seq.Pending() }

// DeadLetters delivers events that exhausted their redelivery attempts.
func (p *Publisher) DeadLetters() <-chan *Envelope { return p.deadLetters }

// Close stops redelivery; the underlying client is left open for the caller.
func (p *Publisher) Close() {
	p.once.Do(func() { close(p.closed) })
	p.wg.Wait()
}

func (p *Publisher) ackLoop() {
	defer p.wg.Done()
	for {
		ev, err := p.client.NextUntil(p.closed)
		if err != nil {
			return // closed, or the client was
		}
		if ev.Type != event.TypePublish {
			continue
		}
		ack, err := DecodeAck(ev.Payload)
		if err != nil {
			continue
		}
		p.seq.Acknowledge(ack.Topic, ack.Seq)
	}
}

func (p *Publisher) redeliverLoop() {
	defer p.wg.Done()
	tick := p.redeliverAfter / 2
	if tick <= 0 {
		tick = time.Second
	}
	for {
		select {
		case <-p.closed:
			return
		case <-p.clock.After(tick):
		}
		resend, dead := p.seq.Due(p.clock.Now(), p.redeliverAfter, p.maxAttempts)
		for _, env := range resend {
			_ = p.client.Publish(env.Topic, EncodeEnvelope(env))
		}
		for _, env := range dead {
			select {
			case p.deadLetters <- env:
			default:
			}
		}
	}
}

// Subscriber consumes reliable streams through a broker client: it
// acknowledges every envelope, suppresses duplicates and releases payloads
// in per-stream sequence order.
type Subscriber struct {
	client  *broker.Client
	reorder *Reorderer

	out    chan *Envelope
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// NewSubscriber wraps a broker client already subscribed (or about to be
// subscribed) to the application topics.
func NewSubscriber(client *broker.Client) *Subscriber {
	s := &Subscriber{
		client:  client,
		reorder: NewReorderer(),
		out:     make(chan *Envelope, 256),
		closed:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.recvLoop()
	return s
}

// Subscribe registers an application topic pattern.
func (s *Subscriber) Subscribe(pattern string) error { return s.client.Subscribe(pattern) }

// Next returns the next in-order envelope, or an error after the timeout.
func (s *Subscriber) Next(timeout time.Duration) (*Envelope, error) {
	select {
	case env, ok := <-s.out:
		if !ok {
			return nil, broker.ErrClientClosed
		}
		return env, nil
	case <-time.After(timeout):
		return nil, transport.ErrTimeout
	}
}

// Close stops the subscriber; the underlying client is left open.
func (s *Subscriber) Close() {
	s.once.Do(func() { close(s.closed) })
	s.wg.Wait()
}

func (s *Subscriber) recvLoop() {
	defer s.wg.Done()
	for {
		ev, err := s.client.NextUntil(s.closed)
		if err == broker.ErrClientClosed {
			close(s.out)
			return
		}
		if err != nil {
			return // closed
		}
		if ev.Type != event.TypePublish {
			continue
		}
		env, err := DecodeEnvelope(ev.Payload)
		if err != nil {
			continue
		}
		// Acknowledge every copy received (redeliveries re-ack so the
		// publisher converges even when the first ack was lost).
		ack := &Ack{Source: env.Source, Topic: env.Topic, Seq: env.Seq}
		_ = s.client.Publish(AckTopic(env.Source), EncodeAck(ack))
		for _, release := range s.reorder.Offer(env) {
			select {
			case s.out <- release:
			case <-s.closed:
				return
			}
		}
	}
}
