package broker

import (
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/obs"
	"narada/internal/topics"
)

// Supervision kinds distinguish the two long-lived relationships a broker
// maintains: broker-to-broker links and BDN registrations. They key the
// Supervisor lookup and label the supervision metrics.
const (
	SuperviseLink = "link"
	SuperviseBDN  = "bdn"
)

// The redial ladder. The first wait after a failed dial is superviseBase and
// each further failure doubles it, up to superviseCap; a session that dies
// rests one superviseBase before its first redial, so a link that dies at
// once cannot spin, and a session that is made resets the ladder. Every wait
// is jittered by ±superviseJitter so brokers that lost the same peer do not
// redial in step; the jitter is drawn from a stream seeded by the broker's
// logical address and the relationship, so a run's redials repeat with it.
const (
	superviseBase   = 100 * time.Millisecond
	superviseCap    = 30 * time.Second
	superviseJitter = 0.2
)

// LinkState is a supervised relationship's health; its value is the
// narada_broker_link_state gauge.
type LinkState int32

// Supervised relationship states.
const (
	LinkConnected    LinkState = iota // a live session
	LinkDegraded                      // the session just died; a redial follows one rest
	LinkReconnecting                  // dials are failing; the loop is backing off
	LinkStopped                       // the broker closed
)

// String renders the state for logs and test failures.
func (s LinkState) String() string {
	switch s {
	case LinkConnected:
		return "connected"
	case LinkDegraded:
		return "degraded"
	case LinkReconnecting:
		return "reconnecting"
	default:
		return "stopped"
	}
}

// Supervisor is the read side of one supervised relationship: its state and
// how many redials it made. The redial loop is its only writer.
type Supervisor struct {
	state     atomic.Int32
	attempts  atomic.Uint64
	successes atomic.Uint64
	gauge     *obs.Gauge
}

// State returns the relationship's current health.
func (s *Supervisor) State() LinkState { return LinkState(s.state.Load()) }

// Attempts returns the number of redials the loop has made.
func (s *Supervisor) Attempts() uint64 { return s.attempts.Load() }

// Successes returns the number of redials that produced a session.
func (s *Supervisor) Successes() uint64 { return s.successes.Load() }

func (s *Supervisor) set(st LinkState) {
	s.state.Store(int32(st))
	s.gauge.Set(float64(st))
}

// superviseDial establishes one long-lived relationship: the first dial runs
// synchronously so the caller sees its error, and that is all there is to it
// without Config.Supervise. With it, a redial loop owns the relationship
// until Close whether or not the first dial succeeded: every time the
// session dies, or while it cannot be made, it redials on the ladder. dial
// must return a channel that closes when the session ends. Calling again for
// a relationship that is already supervised is a no-op.
func (b *Broker) superviseDial(kind, addr string, dial func(string) (<-chan struct{}, error)) error {
	if !b.cfg.Supervise {
		_, err := dial(addr)
		return err
	}
	key := kind + ":" + addr
	s := &Supervisor{}
	b.mu.Lock()
	select {
	case <-b.closed:
		b.mu.Unlock()
		return errClosed
	default:
	}
	if _, ok := b.supervisors[key]; ok {
		b.mu.Unlock()
		return nil
	}
	b.supervisors[key] = s
	b.mu.Unlock()

	session, err := dial(addr)
	s.gauge = b.tel.linkStateGauge(kind, addr)
	if session != nil {
		s.set(LinkConnected)
	} else {
		s.set(LinkReconnecting)
	}
	// Close takes b.mu after closing b.closed and before it waits on b.wg,
	// so a loop added here is either waited for or never started.
	b.mu.Lock()
	select {
	case <-b.closed:
		b.mu.Unlock()
		s.set(LinkStopped)
		return errClosed
	default:
	}
	b.wg.Add(1)
	b.mu.Unlock()
	go b.redialLoop(s, kind, addr, session, dial)
	return err
}

// redialLoop keeps one relationship up until Close: it watches the live
// session, and once that ends, or while there is none, it redials on the
// ladder. It starts with a dial when session is nil.
func (b *Broker) redialLoop(s *Supervisor, kind, addr string, session <-chan struct{},
	dial func(string) (<-chan struct{}, error)) {
	defer b.wg.Done()
	defer s.set(LinkStopped)
	log := b.cfg.Logger.With("kind", kind, "target", addr)
	attempted, reconnected := b.tel.reconnAttemptLink, b.tel.reconnLink
	if kind == SuperviseBDN {
		attempted, reconnected = b.tel.reconnAttemptBDN, b.tel.reconnBDN
	}
	h := fnv.New64a()
	h.Write([]byte(b.cfg.LogicalAddress + " " + kind + ":" + addr))
	jitter := rand.New(rand.NewSource(int64(h.Sum64()))) //nolint:gosec
	backoff := superviseBase
	for {
		if session != nil {
			s.set(LinkConnected)
			select {
			case <-session:
			case <-b.closed:
				return
			}
			s.set(LinkDegraded)
			log.Info("supervised session died")
			if !b.rest(superviseBase, jitter) {
				return
			}
		}
		select {
		case <-b.closed: // Close ended the session: no redial
			return
		default:
		}
		s.attempts.Add(1)
		attempted.Inc()
		var err error
		if session, err = dial(addr); err == nil {
			s.successes.Add(1)
			reconnected.Inc()
			b.cfg.Journal.Emit(obs.EventReconnectAttempt, addr, "ok")
			log.Info("supervised session established")
			backoff = superviseBase
			continue
		}
		b.cfg.Journal.Emit(obs.EventReconnectAttempt, addr, "fail: "+err.Error())
		s.set(LinkReconnecting)
		log.Debug("supervised dial failed", "retry-in", backoff, "err", err)
		if !b.rest(backoff, jitter) {
			return
		}
		backoff = min(2*backoff, superviseCap)
	}
}

// rest waits d, jittered by ±superviseJitter, on the broker's clock; false
// means the broker closed first.
func (b *Broker) rest(d time.Duration, jitter *rand.Rand) bool {
	d = time.Duration(float64(d) * (1 + superviseJitter*(2*jitter.Float64()-1)))
	select {
	case <-b.node.Clock().After(d):
		return true
	case <-b.closed:
		return false
	}
}

// Supervisor returns the supervised relationship of the given kind ("link"
// or "bdn") to addr, or nil when there is none.
func (b *Broker) Supervisor(kind, addr string) *Supervisor {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.supervisors[kind+":"+addr]
}

// advertisement assembles this broker's current advertisement. It is valid
// for three refresh periods, so a BDN keeps the registration across two lost
// refreshes and ages it out after that; without refresh it never expires.
func (b *Broker) advertisement() *event.Event {
	adv := &core.Advertisement{Broker: b.Info(), IssuedAt: b.now(), TTL: 3 * b.cfg.AdvertiseInterval}
	ev := event.New(event.TypeAdvertisement, topics.AdvertisementTopic, core.EncodeAdvertisement(adv))
	ev.Source = b.cfg.LogicalAddress
	ev.Timestamp = adv.IssuedAt
	return ev
}

// advertiseLoop periodically refreshes this broker's registrations: every
// AdvertiseInterval it re-sends the advertisement over each live BDN
// registration link, renewing the TTL deadline the BDN stamped. Refresh
// rides the control queue — registration freshness must not be crowded out
// by data traffic.
func (b *Broker) advertiseLoop() {
	defer b.wg.Done()
	clock := b.node.Clock()
	for {
		select {
		case <-b.closed:
			return
		case <-clock.After(b.cfg.AdvertiseInterval):
		}
		b.mu.Lock()
		bdns := make([]*link, 0, 2)
		for _, lk := range b.links {
			if lk.role == roleBDN {
				bdns = append(bdns, lk)
			}
		}
		b.mu.Unlock()
		if len(bdns) == 0 {
			continue
		}
		// One shared frame, one reference per registration link.
		f := b.frames.encode(b.advertisement(), int32(len(bdns)))
		for _, lk := range bdns {
			if lk.out.sendControl(f) {
				b.noteAdvertised(lk.peer)
			}
		}
	}
}

// noteAdvertised records a successful advertisement to a BDN registration
// target, feeding the registration-age gauge.
func (b *Broker) noteAdvertised(target string) {
	now := b.node.Clock().Now()
	b.mu.Lock()
	_, known := b.lastAd[target]
	b.lastAd[target] = now
	b.mu.Unlock()
	b.cfg.Journal.Emit(obs.EventAdRefreshed, target, "")
	if !known {
		b.tel.registrationAgeGauge(b, target)
	}
}

// lastAdvertised returns when the broker last successfully sent its
// advertisement to target (zero time if never).
func (b *Broker) lastAdvertised(target string) time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastAd[target]
}
