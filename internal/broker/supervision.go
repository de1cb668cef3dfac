package broker

import (
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/obs"
	"narada/internal/supervise"
	"narada/internal/topics"
)

// Supervision kinds distinguish the two long-lived relationships a broker
// maintains: broker-to-broker links and BDN registrations. They key the
// Supervisor lookup and label the supervision metrics.
const (
	SuperviseLink = "link"
	SuperviseBDN  = "bdn"
)

// superviseDial establishes one long-lived relationship: the first dial runs
// synchronously so the caller sees its error, and that is all there is to it
// without Config.Supervise (the legacy dial-once behaviour). With it, a
// supervise runner owns the relationship for the broker's lifetime whether or
// not the first dial succeeded — every time the session dies, or while it
// cannot be made, it redials under the configured backoff policy. dial must
// return a channel that closes when the session ends. Calling again for a
// relationship that is already supervised is a no-op.
func (b *Broker) superviseDial(kind, addr string, dial func(string) (<-chan struct{}, error)) error {
	if b.cfg.Supervise == nil {
		_, err := dial(addr)
		return err
	}
	key := kind + ":" + addr
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
	b.supervisors[key] = nil // reserve against a concurrent call
	b.mu.Unlock()

	// A failed first dial leaves Initial nil: the runner starts by dialling.
	initial, err := dial(addr)
	r := supervise.New(supervise.RunnerConfig{
		Target:  addr,
		Policy:  *b.cfg.Supervise,
		Clock:   b.node.Clock(),
		Dial:    func() (<-chan struct{}, error) { return dial(addr) },
		Initial: initial,
		Logger:  b.cfg.Logger.With("kind", kind),
		Journal: b.cfg.Journal,
		OnState: func(s supervise.State) { b.tel.setLinkState(kind, addr, s) },
		OnAttempt: func(ok bool) {
			b.tel.reconnectAttempt(kind)
			if ok {
				b.tel.reconnected(kind)
			}
		},
	})
	b.tel.setLinkState(kind, addr, r.State())

	b.mu.Lock()
	select {
	case <-b.closed:
		// Close already swept the supervisor map; this runner would never be
		// stopped, so do not start it.
		delete(b.supervisors, key)
		b.mu.Unlock()
		r.Stop()
		return errClosed
	default:
	}
	b.supervisors[key] = r
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		r.Run()
	}()
	return err
}

// Supervisor returns the runner owning the supervised relationship of the
// given kind ("link" or "bdn") to addr, or nil when none exists.
func (b *Broker) Supervisor(kind, addr string) *supervise.Runner {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.supervisors[kind+":"+addr]
}

// advertisement assembles this broker's current advertisement, stamped with
// the configured TTL so BDN registrations age out unless refreshed.
func (b *Broker) advertisement() *event.Event {
	adv := &core.Advertisement{Broker: b.Info(), IssuedAt: b.now(), TTL: b.cfg.AdvertiseTTL}
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
