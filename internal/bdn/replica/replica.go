// Package replica adds primary/standby replication to durable BDNs: every
// cluster member runs a full BDN (accepting registrations and discovery
// requests), and a replication agent streams the primary's write-ahead log
// to all standbys with acked offsets, so each member holds the complete
// advertisement table at all times.
//
// Leadership is a lease: the primary beats every lease/4 on a mesh of
// supervised connections; a standby whose lease expires promotes itself
// after a deterministic per-rank stagger (rank among the sorted member
// addresses, excluding the expired leader) and bumps the election epoch.
// A primary hearing a higher epoch, or an equal epoch from a lower address
// (the dual-primary tie-break), demotes itself; a beat from a lower epoch is
// ignored, so a stale primary steps down when the real primary's beat
// reaches it. No member relays a registration to another: brokers register
// with every member (the paper's "set of BDNs"), so each member learns a
// broker from the broker itself, and the stream carries what a member missed
// while it was down.
package replica

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"narada/internal/bdn"
	"narada/internal/obs"
	"narada/internal/supervise"
	"narada/internal/transport"
	"narada/internal/wal"
)

// DefaultLease is the leader lease duration when Config.Lease is zero.
const DefaultLease = 2 * time.Second

// Config assembles a replication agent around a durable BDN.
type Config struct {
	// Name is this member's identity (normally the BDN name). Applied
	// watermarks and journal events are keyed by it.
	Name string
	// Node supplies the transport (sim or real).
	Node transport.Node
	// Store is the durable BDN this agent replicates. Must have a DataDir.
	Store *bdn.BDN
	// ListenPort binds the replication endpoint (0 = auto).
	ListenPort int
	// Addr is the replication address advertised to peers; defaults to the
	// listener address. Member ranks come from sorting these strings, so
	// every node must use the same spelling for a given peer.
	Addr string
	// Peers lists the other members' replication addresses.
	Peers []string
	// Lease is the leader lease duration (default 2s). Failover takes
	// between one and roughly two leases, by rank.
	Lease time.Duration
	// Policy tunes the supervised redial of peer connections.
	Policy supervise.Policy
	// Handle is where the replica reports: replication logs, its metric
	// families and replica_promoted/replica_demoted journal events (the
	// Tracer is unused). The zero value is usable; see obs.Handle.
	obs.Handle
}

// Replica is one member's replication agent.
type Replica struct {
	cfg      Config
	node     transport.Node
	d        *bdn.BDN
	listener transport.Listener
	addr     string
	lease    time.Duration

	mu         sync.Mutex
	primary    bool
	epoch      uint64
	leaderName string
	leaderAddr string
	leaseUntil time.Time
	lastBeatAt time.Time
	leaderLast uint64 // leader's WAL last index, from beats
	sessions   map[string]*session
	acked      map[string]uint64 // primary view: applied index per peer addr
	peers      []string
	started    bool

	promotions *obs.Counter
	demotions  *obs.Counter
	streamed   *obs.Counter

	runners   []*supervise.Runner
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// session is one live connection to a peer member, either accepted or
// dialed. epoch is the epoch of the stream on it (guarded by the replica
// mutex): on a standby, the epoch in which it asked its leader for the
// stream; on the primary, the epoch its stream to the peer runs in.
type session struct {
	conn      transport.Conn
	peerAddr  string
	epoch     uint64
	closed    chan struct{}
	closeOnce sync.Once
}

func (s *session) close() {
	s.closeOnce.Do(func() {
		_ = s.conn.Close()
		close(s.closed)
	})
}

// New binds the replication listener and registers metrics. Call Start to
// join the cluster. The BDN must be durable — replication streams its WAL.
func New(cfg Config) (*Replica, error) {
	if cfg.Name == "" {
		return nil, errors.New("replica: Name required")
	}
	if cfg.Store == nil || !cfg.Store.Durable() {
		return nil, errors.New("replica: requires a durable BDN (set DataDir)")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = DefaultLease
	}
	cfg.Handle = cfg.Handle.Scoped("replica", cfg.Name)
	l, err := cfg.Node.Listen(cfg.ListenPort)
	if err != nil {
		return nil, fmt.Errorf("replica %s: listen: %w", cfg.Name, err)
	}
	r := &Replica{
		cfg:      cfg,
		node:     cfg.Node,
		d:        cfg.Store,
		listener: l,
		addr:     cfg.Addr,
		lease:    cfg.Lease,
		sessions: make(map[string]*session),
		acked:    make(map[string]uint64),
		peers:    append([]string(nil), cfg.Peers...),
		closed:   make(chan struct{}),
	}
	if r.addr == "" {
		r.addr = l.Addr()
	}
	r.epoch = r.d.Epoch() // resume from the persisted election epoch
	r.initTelemetry(cfg.Metrics)
	return r, nil
}

// Addr returns the replication address peers should dial.
func (r *Replica) Addr() string { return r.addr }

// Start joins the cluster: accept loop, supervised dials to the peers this
// member owns the edge to, and the election loop. peers, when non-nil,
// replaces Config.Peers (testbeds bind every listener first, then start).
func (r *Replica) Start(peers []string) error {
	now := r.node.Clock().Now()
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return errors.New("replica: already started")
	}
	r.started = true
	if peers != nil {
		r.peers = append([]string(nil), peers...)
	}
	// Start with a 2× grace lease: a restarted member rejoining a healthy
	// cluster hears the primary's beat well before promoting, and at
	// bootstrap the lowest-address member elects itself after the grace.
	r.leaseUntil = now.Add(2 * r.lease)
	r.lastBeatAt = now
	peerList := append([]string(nil), r.peers...)
	r.mu.Unlock()

	r.wg.Add(1)
	go r.acceptLoop()

	// Each pair is connected by exactly one supervised session, dialed by
	// the lexicographically smaller address, so the mesh has no duplicate
	// edges. The runner redials with backoff when a session dies.
	for _, peer := range peerList {
		if r.addr >= peer {
			continue
		}
		peer := peer
		runner := supervise.New(supervise.RunnerConfig{
			Target:  peer,
			Policy:  r.cfg.Policy,
			Clock:   r.node.Clock(),
			Logger:  r.cfg.Logger,
			Journal: r.cfg.Journal,
			Dial:    func() (<-chan struct{}, error) { return r.dialPeer(peer) },
		})
		r.mu.Lock()
		r.runners = append(r.runners, runner)
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			runner.Run()
		}()
	}

	r.wg.Add(1)
	go r.electionLoop()
	r.cfg.Logger.Info("replica started", "addr", r.addr, "peers", len(peerList))
	return nil
}

// Close leaves the cluster and releases the listener.
func (r *Replica) Close() {
	r.closeOnce.Do(func() {
		close(r.closed)
		_ = r.listener.Close()
		r.mu.Lock()
		runners := r.runners
		sessions := r.liveSessionsLocked()
		r.mu.Unlock()
		for _, runner := range runners {
			runner.Stop()
		}
		for _, s := range sessions {
			s.close()
		}
		r.wg.Wait()
	})
}

// IsPrimary reports whether this member currently holds leadership.
func (r *Replica) IsPrimary() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

// Epoch returns the current election epoch.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// LeaderAddr returns the replication address of the member this replica
// believes is primary ("" when no leader is known).
func (r *Replica) LeaderAddr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderAddr
}

func (r *Replica) initTelemetry(reg *obs.Registry) {
	who := obs.L("node", r.cfg.Name)
	r.promotions = reg.Counter("narada_replica_promotions_total",
		"Lease-expiry promotions to primary.", who)
	r.demotions = reg.Counter("narada_replica_demotions_total",
		"Step-downs after hearing a superior leader.", who)
	r.streamed = reg.Counter("narada_replica_records_streamed_total",
		"WAL records streamed to standbys.", who)
	reg.GaugeFunc("narada_replica_role",
		"1 when this member is the primary, 0 for standbys.",
		func() float64 {
			if r.IsPrimary() {
				return 1
			}
			return 0
		}, who)
	reg.GaugeFunc("narada_replica_epoch",
		"Current election epoch.",
		func() float64 { return float64(r.Epoch()) }, who)
	reg.GaugeFunc("narada_replica_lag_records",
		"Replication lag in WAL records: how far this standby trails the "+
			"primary (primaries report their worst-trailing peer).",
		func() float64 { return float64(r.lag()) }, who)
	reg.GaugeFunc("narada_replica_leader_age_seconds",
		"Seconds since this standby last heard the primary's beat (0 on "+
			"the primary itself).",
		func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.primary || !r.started {
				return 0
			}
			return r.node.Clock().Now().Sub(r.lastBeatAt).Seconds()
		}, who)
}

// lag computes the replication-lag gauge.
func (r *Replica) lag() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.primary {
		_, last := r.d.WALRange()
		var worst uint64
		for addr := range r.sessions {
			if acked := r.acked[addr]; last > acked && last-acked > worst {
				worst = last - acked
			}
		}
		return worst
	}
	if r.leaderName == "" {
		return 0
	}
	applied := r.d.AppliedIndex(r.leaderName)
	if r.leaderLast > applied {
		return r.leaderLast - applied
	}
	return 0
}

// dialPeer establishes the supervised session this member owns.
func (r *Replica) dialPeer(peer string) (<-chan struct{}, error) {
	conn, err := r.node.Dial(peer)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(encodeHello(r.addr)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	s := r.addSession(conn, peer)
	if s == nil {
		_ = conn.Close()
		return nil, errors.New("replica: closed")
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.readLoop(s)
	}()
	return s.closed, nil
}

// acceptLoop admits inbound peer sessions: the first frame must be a hello
// identifying the dialer; we answer with our own hello.
func (r *Replica) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.listener.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			frame, err := conn.Recv()
			if err != nil {
				_ = conn.Close()
				return
			}
			m, err := decodeMessage(frame)
			if err != nil || m.typ != msgHello {
				_ = conn.Close()
				return
			}
			if err := conn.Send(encodeHello(r.addr)); err != nil {
				_ = conn.Close()
				return
			}
			s := r.addSession(conn, m.addr)
			if s == nil {
				_ = conn.Close()
				return
			}
			r.readLoop(s)
		}()
	}
}

// addSession registers a live peer session, replacing any stale one to the
// same address. Returns nil when the replica is closed.
func (r *Replica) addSession(conn transport.Conn, peerAddr string) *session {
	s := &session{conn: conn, peerAddr: peerAddr, closed: make(chan struct{})}
	r.mu.Lock()
	select {
	case <-r.closed:
		r.mu.Unlock()
		return nil
	default:
	}
	if old, ok := r.sessions[peerAddr]; ok {
		old.close()
	}
	r.sessions[peerAddr] = s
	r.mu.Unlock()
	return s
}

// liveSessionsLocked copies the session set, so its user can send on or close
// the sessions without holding r.mu.
func (r *Replica) liveSessionsLocked() []*session {
	sessions := make([]*session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	return sessions
}

func (r *Replica) dropSession(s *session) {
	r.mu.Lock()
	if r.sessions[s.peerAddr] == s {
		delete(r.sessions, s.peerAddr)
	}
	r.mu.Unlock()
	s.close()
}

// readLoop dispatches one session's inbound messages until the connection
// dies; the supervising runner (on the edge owner) then redials.
func (r *Replica) readLoop(s *session) {
	defer r.dropSession(s)
	for {
		frame, err := s.conn.Recv()
		if err != nil {
			return
		}
		m, err := decodeMessage(frame)
		if err != nil {
			r.cfg.Logger.Warn("malformed replication frame", "peer", s.peerAddr, "err", err)
			continue
		}
		switch m.typ {
		case msgBeat:
			r.handleBeat(s, m)
		case msgRecords:
			r.handleRecords(s, m)
		case msgSnapshot:
			r.handleSnapshot(s, m)
		case msgApplied:
			r.handleApplied(s, m)
		}
	}
}

// electionLoop drives the lease state machine: primaries beat every quarter
// lease; standbys whose lease expired promote after their rank's stagger.
func (r *Replica) electionLoop() {
	defer r.wg.Done()
	clock := r.node.Clock()
	tick := r.lease / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	for {
		select {
		case <-r.closed:
			return
		case <-clock.After(tick):
		}
		now := clock.Now()
		r.mu.Lock()
		if r.primary {
			r.mu.Unlock()
			r.sendBeats()
			continue
		}
		if now.Before(r.leaseUntil) {
			r.mu.Unlock()
			continue
		}
		// Lease expired: promote at leaseUntil + rank×(lease/2), so the
		// best-ranked survivor takes over first and its beats cancel the
		// laggards' countdowns.
		promoteAt := r.leaseUntil.Add(time.Duration(r.rankLocked()) * (r.lease / 2))
		if now.Before(promoteAt) {
			r.mu.Unlock()
			continue
		}
		r.epoch++
		epoch := r.epoch
		r.primary = true
		r.leaderName, r.leaderAddr = r.cfg.Name, r.addr
		r.acked = make(map[string]uint64)
		r.mu.Unlock()

		r.d.SetEpoch(epoch) // durable before the first beat announces it
		r.promotions.Inc()
		r.cfg.Logger.Info("promoted to primary", "epoch", epoch)
		r.cfg.Journal.Emit(obs.EventReplicaPromoted, r.cfg.Name,
			fmt.Sprintf("epoch=%d addr=%s", epoch, r.addr))
		r.sendBeats()
	}
}

// rankLocked is this member's position among the sorted member addresses,
// not counting the expired leader (it is the one being replaced).
func (r *Replica) rankLocked() int {
	members := append([]string{r.addr}, r.peers...)
	sort.Strings(members)
	rank := 0
	for _, m := range members {
		if m == r.addr {
			break
		}
		if m == r.leaderAddr {
			continue
		}
		rank++
	}
	return rank
}

// sendBeats announces leadership on every live session.
func (r *Replica) sendBeats() {
	r.mu.Lock()
	if !r.primary {
		r.mu.Unlock()
		return
	}
	epoch := r.epoch
	sessions := r.liveSessionsLocked()
	r.mu.Unlock()
	_, last := r.d.WALRange()
	beat := encodeBeat(r.cfg.Name, r.addr, epoch, r.lease, last)
	for _, s := range sessions {
		_ = s.conn.Send(beat)
	}
}

// handleBeat processes a leadership announcement.
func (r *Replica) handleBeat(s *session, m *message) {
	now := r.node.Clock().Now()
	r.mu.Lock()
	if m.epoch < r.epoch {
		// A stale primary: ignored. It steps down when the real primary's
		// beat reaches it.
		r.mu.Unlock()
		return
	}
	demoted := false
	if m.epoch > r.epoch || (!r.primary && m.addr != r.leaderAddr) ||
		(r.primary && m.addr != r.addr && m.addr < r.addr) {
		// Adopt a superior leader. The last clause is the dual-primary
		// tie-break: equal epochs resolve to the lower address.
		demoted = r.primary
		r.primary = false
		r.epoch = m.epoch
		r.leaderName, r.leaderAddr = m.name, m.addr
	} else if r.primary {
		// Equal epoch from a higher address: ignore; our beat will win.
		r.mu.Unlock()
		return
	}
	r.leaseUntil = now.Add(m.lease)
	r.lastBeatAt = now
	r.leaderLast = m.lastIndex
	epoch := r.epoch
	adopted := s.peerAddr == r.leaderAddr && s.epoch != epoch
	if adopted {
		s.epoch = epoch
	}
	leaderName := r.leaderName
	r.mu.Unlock()

	if demoted {
		r.demotions.Inc()
		r.cfg.Logger.Info("demoted", "leader", m.addr, "epoch", m.epoch)
		r.cfg.Journal.Emit(obs.EventReplicaDemoted, r.cfg.Name,
			fmt.Sprintf("leader=%s epoch=%d", m.name, m.epoch))
	}
	r.d.SetEpoch(epoch)
	if adopted {
		// The leader streams from just past what this member applied. A
		// request a partition refused is made again on the next beat.
		applied := r.d.AppliedIndex(leaderName)
		r.cfg.Logger.Debug("following", "leader", m.name, "epoch", epoch, "applied", applied)
		if s.conn.Send(encodeApplied(applied)) != nil {
			r.mu.Lock()
			s.epoch = 0
			r.mu.Unlock()
		}
	}
}

// handleApplied records a standby's watermark on the primary, and starts the
// stream to it when its session has none in this epoch.
func (r *Replica) handleApplied(s *session, m *message) {
	r.mu.Lock()
	if !r.primary {
		r.mu.Unlock()
		return
	}
	if m.index > r.acked[s.peerAddr] {
		r.acked[s.peerAddr] = m.index
	}
	epoch := r.epoch
	start := s.epoch != epoch
	s.epoch = epoch
	r.mu.Unlock()
	if start {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.stream(s, m.index+1, epoch)
		}()
	}
}

// stream ships WAL records to one standby, live-tailing new appends, until
// the session dies or this member loses (or re-wins) leadership. A start
// below the compaction horizon falls back to a full snapshot transfer.
func (r *Replica) stream(s *session, from uint64, epoch uint64) {
	for {
		select {
		case <-s.closed:
			return
		case <-r.closed:
			return
		default:
		}
		r.mu.Lock()
		live := r.primary && r.epoch == epoch
		r.mu.Unlock()
		if !live {
			r.cfg.Logger.Debug("stream ended: leadership changed", "peer", s.peerAddr, "epoch", epoch)
			return
		}
		first, _ := r.d.WALRange()
		var recs [][]byte
		var err error
		if first > 0 && from < first {
			err = wal.ErrNotFound
		} else {
			recs, err = r.d.ReadRecords(from, maxBatchRecords)
		}
		var frame []byte
		next := from + uint64(len(recs))
		switch {
		case err == wal.ErrNotFound:
			index, state := r.d.ReplicaSnapshot()
			frame, next = encodeSnapshot(epoch, index, state), index+1
		case err != nil:
			r.cfg.Logger.Warn("stream read failed", "err", err)
			return
		case len(recs) > 0:
			frame = encodeRecords(epoch, from, recs)
		}
		if frame != nil {
			if s.conn.Send(frame) == nil {
				r.streamed.Add(uint64(len(recs)))
				from = next
				continue
			}
			// A partitioned path refuses the frame but keeps the session:
			// offer it again after a beat interval.
			if !r.pause(s, nil, r.lease/4) {
				return
			}
			continue
		}
		// Caught up: wait for the next append (or recheck leadership after a
		// lease, in case it changed while idle).
		notify := r.d.WALNotify()
		if notify == nil || !r.pause(s, notify, r.lease) {
			return
		}
	}
}

// pause waits for wake (nil waits for nothing) or d of model time; false
// means the session or the replica closed first.
func (r *Replica) pause(s *session, wake <-chan struct{}, d time.Duration) bool {
	select {
	case <-wake:
	case <-r.node.Clock().After(d):
	case <-s.closed:
		return false
	case <-r.closed:
		return false
	}
	return true
}

// following is the one guard in front of streamed state: a records or
// snapshot message is applied only when it comes from my leader, in my epoch,
// while I am a standby. It returns the leader's name, the watermark's key.
func (r *Replica) following(s *session, m *message) (leaderName string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderName, !r.primary && m.epoch == r.epoch && s.peerAddr == r.leaderAddr
}

// handleRecords applies a streamed batch on a standby and reports it applied.
func (r *Replica) handleRecords(s *session, m *message) {
	leaderName, ok := r.following(s, m)
	if !ok || len(m.recs) == 0 {
		r.cfg.Logger.Debug("records dropped", "peer", s.peerAddr, "epoch", m.epoch, "n", len(m.recs))
		return
	}
	for i, rec := range m.recs {
		if err := r.d.ApplyReplicated(leaderName, m.from+uint64(i), rec); err != nil {
			r.cfg.Logger.Warn("apply failed", "index", m.from+uint64(i), "err", err)
		}
	}
	_ = s.conn.Send(encodeApplied(m.from + uint64(len(m.recs)) - 1))
}

// handleSnapshot installs a full-state transfer on a standby and reports it
// applied.
func (r *Replica) handleSnapshot(s *session, m *message) {
	leaderName, ok := r.following(s, m)
	if !ok {
		return
	}
	if err := r.d.InstallReplicaState(leaderName, m.index, m.state); err != nil {
		r.cfg.Logger.Warn("snapshot install failed", "err", err)
		return
	}
	_ = s.conn.Send(encodeApplied(m.index))
}
