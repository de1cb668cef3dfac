package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"sync/atomic"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/transport"
)

// processStart anchors the monotonic nanosecond timestamps the benchmark
// stores in its arrays.
var processStart = time.Now()

func mono(t time.Time) int64 { return int64(t.Sub(processStart)) }

var (
	reListening = regexp.MustCompile(`listening: stream=(\S+) udp=(\S+)`)
	reTelemetry = regexp.MustCompile(`telemetry on http://(\S+)/metrics`)
	reLinked    = regexp.MustCompile(`broker: (linked to|linking to) `)
)

// segResult is what one closed- or open-loop segment measured.
type segResult struct {
	Attempted int
	Failed    int
	Completed int           // operations that met every check
	Wall      time.Duration // closed loop: issue window; open loop: schedule length
	Lat       []int64       // open loop: ns from due time to verified receipt
	TimerLate []time.Duration
	SchedLate []time.Duration
	Ops       []opRecord // traced runs: the first spanOps completed operations

	Responses, Retransmits int // discovery: summed over completed operations
}

// opRecord is one live operation as the traced run's span file shows it.
type opRecord struct {
	ID         string
	Due        int64           // mono ns; the root span starts here
	Start, End int64           // the call itself (publish: Start = Due)
	Timing     *core.Breakdown // discovery: the phases of the call
}

// rig is a set-up system under test plus the generator's connections to it.
type rig interface {
	closed(d time.Duration) (segResult, error)
	open(d time.Duration) (segResult, error)
	// finish runs the end-of-run output checks and returns a description of
	// every violated one.
	finish() []string
	close()
	fleet() *fleet
	telemetryAddrs() map[string]string // child name -> host:port, traced runs only
}

type subRole int

const (
	roleVerifier subRole = iota // decodes and checks every frame
	roleSink                    // decodes until the rig is ready, then only counts
	roleControl                 // ballast and churn connections: expect only their probe
)

// subscriber is one receiving connection and its goroutine.
type subscriber struct {
	rig  *pubRig
	role subRole
	conn transport.Conn
	done chan struct{}

	count   atomic.Uint64 // frames received
	lastSeq atomic.Uint64 // 1 + sequence of the last frame decoded; 0 = none yet
	bad     atomic.Uint64 // frames that failed a check

	next uint64 // verifier: sequence expected next (its goroutine only)
}

// openSeg is the generator-side state of one open-loop segment: the due time
// of every operation, indexed by sequence, and where the verifier leaves the
// measured latency.
type openSeg struct {
	base uint64
	due  []atomic.Int64
	lat  []int64 // 0 = not received; written by the verifier before it counts the frame
}

// pubRig drives the three publish workloads.
type pubRig struct {
	w      *workload
	in     *inputs
	kids   *fleet
	tele   map[string]string
	traced bool // keep opRecords

	pub    transport.Conn
	batch  transport.BatchSender
	subs   []*subscriber // verifier first, then the sinks
	extras []*subscriber // ballast, churn
	ttl    uint8         // TTL the verifier must see

	seq      uint64 // next sequence to publish
	frames   [][]byte
	scratch  []byte
	strict   atomic.Bool
	seg      atomic.Pointer[openSeg]
	progress chan struct{} // 1-slot wake-up from subscribers to the closed loop

	extraBase []uint64 // extras' counts when the rig became ready
	churnStop chan struct{}
	churnDone chan struct{}
	churnErr  error
}

func (r *pubRig) fleet() *fleet                     { return r.kids }
func (r *pubRig) telemetryAddrs() map[string]string { return r.tele }

// startBroker launches one broker child and returns its stream address.
func startBroker(f *fleet, bins *binaries, name string, telemetry bool, tele map[string]string, extra ...string) (string, error) {
	args := []string{"-bind", "127.0.0.1", "-logical", name}
	if telemetry {
		args = append(args, "-telemetry-addr", "127.0.0.1:0")
	}
	c, err := f.start(name, bins.Broker, append(args, extra...)...)
	if err != nil {
		return "", err
	}
	m, err := c.waitLog(reListening, 10*time.Second)
	if err != nil {
		return "", err
	}
	if telemetry {
		t, err := c.waitLog(reTelemetry, 10*time.Second)
		if err != nil {
			return "", err
		}
		tele[name] = t[1]
	}
	return m[1], nil
}

// setupPublish starts the brokers, connects publisher and subscribers and
// returns once every subscription is proven live by a delivered probe.
//
// A traced rig starts its children with -telemetry-addr, so their existing
// /metrics endpoint can be scraped, and keeps a record of its operations.
func setupPublish(root string, bins *binaries, w *workload, in *inputs, traced bool) (_ *pubRig, err error) {
	telemetry := traced
	f, err := newFleet(root)
	if err != nil {
		return nil, err
	}
	r := &pubRig{
		w: w, in: in, kids: f, tele: map[string]string{}, traced: traced,
		ttl:      event.DefaultTTL,
		frames:   make([][]byte, 0, 64),
		scratch:  make([]byte, w.Payload),
		progress: make(chan struct{}, 1),
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	// The publisher feeds the ingress broker, the subscribers sit on the
	// egress broker; they are the same unless the workload chains two.
	var ingress, egress string
	if !w.Chain {
		if ingress, err = startBroker(f, bins, "broker-a", telemetry, r.tele); err != nil {
			return nil, err
		}
		egress = ingress
	} else {
		if egress, err = startBroker(f, bins, "broker-b", telemetry, r.tele); err != nil {
			return nil, err
		}
		if ingress, err = startBroker(f, bins, "broker-a", telemetry, r.tele, "-link", egress); err != nil {
			return nil, err
		}
		m, err := f.kids[1].waitLog(reLinked, 10*time.Second)
		if err != nil {
			return nil, err
		}
		if m[1] != "linked to" {
			return nil, fmt.Errorf("bench: broker-a could not link to broker-b")
		}
		r.ttl = event.DefaultTTL - 1 // one link hop
	}

	node := transport.NewRealNode("127.0.0.1", nil)
	dial := func(addr string, role subRole, patterns ...string) (*subscriber, error) {
		conn, err := node.Dial(addr)
		if err != nil {
			return nil, err
		}
		s := &subscriber{rig: r, role: role, conn: conn, done: make(chan struct{})}
		for _, p := range patterns {
			if err := sendControl(conn, event.TypeSubscribe, p); err != nil {
				_ = conn.Close()
				return nil, err
			}
		}
		go s.loop()
		return s, nil
	}
	for i := 0; i <= w.Sinks; i++ {
		role := roleSink
		if i == 0 {
			role = roleVerifier
		}
		s, err := dial(egress, role, in.pattern)
		if err != nil {
			return nil, err
		}
		r.subs = append(r.subs, s)
	}
	if w.Ballast > 0 {
		// The live-probe pattern goes last: frames of one connection are
		// handled in order, so its delivery proves the ballast is in place.
		s, err := dial(egress, roleControl, append(append([]string(nil), in.ballast...), ballastLive)...)
		if err != nil {
			return nil, err
		}
		r.extras = append(r.extras, s)
	}
	if w.ChurnRate > 0 {
		s, err := dial(egress, roleControl)
		if err != nil {
			return nil, err
		}
		r.extras = append(r.extras, s)
	}
	if r.pub, err = node.Dial(ingress); err != nil {
		return nil, err
	}
	r.batch, _ = r.pub.(transport.BatchSender)

	if err := r.awaitReady(); err != nil {
		return nil, err
	}
	if w.ChurnRate > 0 {
		r.churnStop, r.churnDone = make(chan struct{}), make(chan struct{})
		go r.churnLoop()
	}
	return r, nil
}

func sendControl(conn transport.Conn, t event.Type, pattern string) error {
	ev := event.New(t, pattern, nil)
	ev.Source = "bench"
	return conn.Send(event.Encode(ev))
}

// awaitReady publishes probe events until every subscription has delivered
// one, then a marker per receiving connection that it must see last, so
// nothing of the probing is still in flight when measurement starts.
func (r *pubRig) awaitReady() error {
	deadline := time.Now().Add(15 * time.Second)
	check := func() error {
		if err := r.kids.alive(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s: subscriptions not live after 15s", r.w.Name)
		}
		return nil
	}
	for {
		if err := r.publish(1, ""); err != nil {
			return err
		}
		if r.w.Ballast > 0 {
			if err := r.publish(1, ballastLive); err != nil {
				return err
			}
		}
		time.Sleep(200 * time.Microsecond)
		ready := r.w.Ballast == 0 || r.extras[0].count.Load() > 0
		for _, s := range r.subs {
			ready = ready && s.lastSeq.Load() > 0
		}
		if ready {
			break
		}
		if err := check(); err != nil {
			return err
		}
	}
	// The ballast connection gets a marker of its own: what it receives
	// arrives on another connection than the subscribers' marker, so theirs
	// says nothing about the ballast probes still on their way to it, and one
	// of those counted after extraBase is taken reads as a frame delivered to
	// a non-matching connection during measurement.
	last := map[*subscriber]uint64{}
	for _, s := range r.subs {
		last[s] = r.seq
	}
	if err := r.publish(1, ""); err != nil {
		return err
	}
	if r.w.Ballast > 0 {
		last[r.extras[0]] = r.seq
		if err := r.publish(1, ballastLive); err != nil {
			return err
		}
	}
	for s, marker := range last {
		for s.lastSeq.Load() != marker+1 {
			if err := check(); err != nil {
				return err
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	r.subs[0].next = r.seq
	for _, s := range r.extras {
		r.extraBase = append(r.extraBase, s.count.Load())
	}
	r.strict.Store(true)
	return nil
}

// publish builds n events, starting at the next sequence, and sends them in
// one batch. An empty topic means the workload's topic for each sequence.
func (r *pubRig) publish(n int, topic string) error {
	r.prepare(n, topic)
	return r.send()
}

// prepare encodes the next n events into r.frames with the public codec.
func (r *pubRig) prepare(n int, topic string) {
	r.frames = r.frames[:0]
	now := time.Now()
	for i := 0; i < n; i++ {
		t := topic
		if t == "" {
			t = r.in.topic(r.seq)
		}
		r.in.fill(r.scratch, r.seq)
		ev := event.New(event.TypePublish, t, r.scratch)
		ev.Source = "bench-pub"
		ev.Timestamp = now
		r.frames = append(r.frames, event.Encode(ev))
		r.seq++
	}
}

func (r *pubRig) send() error {
	if r.batch != nil {
		return r.batch.SendBatch(r.frames)
	}
	for _, f := range r.frames {
		if err := r.pub.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// loop receives until the connection closes.
func (s *subscriber) loop() {
	defer close(s.done)
	r := s.rig
	for {
		frame, err := s.conn.Recv()
		if err != nil {
			return
		}
		now := time.Now()
		if s.role != roleSink || !r.strict.Load() {
			s.check(frame, now)
		}
		// Counting comes after the checks, so a driver that has seen the
		// count has also seen their results.
		if n := s.count.Add(1); n%8 == 0 {
			select {
			case r.progress <- struct{}{}:
			default:
			}
		}
	}
}

// check decodes one frame and verifies everything the benchmark knows about
// it; the verifying subscriber also enforces order and records latency.
func (s *subscriber) check(frame []byte, now time.Time) {
	r := s.rig
	ev, err := event.Decode(frame)
	if err != nil || ev.Type != event.TypePublish {
		s.bad.Add(1)
		return
	}
	seq, ok := checkPayload(ev.Payload)
	if !ok || len(ev.Payload) != r.w.Payload {
		s.bad.Add(1)
		return
	}
	s.lastSeq.Store(seq + 1)
	if s.role != roleVerifier || !r.strict.Load() {
		return
	}
	if seq != s.next || ev.Topic != r.in.topic(seq) || ev.TTL != r.ttl {
		s.bad.Add(1)
	} else if seg := r.seg.Load(); seg != nil && seq >= seg.base && seq-seg.base < uint64(len(seg.lat)) {
		i := seq - seg.base
		seg.lat[i] = mono(now) - seg.due[i].Load()
	}
	s.next = seq + 1
}

func (r *pubRig) counts() []uint64 {
	out := make([]uint64, len(r.subs))
	for i, s := range r.subs {
		out[i] = s.count.Load()
	}
	return out
}

// minDelivered is the receive count of the slowest subscriber since base.
func (r *pubRig) minDelivered(base []uint64) int {
	lowest := -1
	for i, s := range r.subs {
		if n := int(s.count.Load() - base[i]); lowest < 0 || n < lowest {
			lowest = n
		}
	}
	return lowest
}

func (r *pubRig) badFrames() uint64 {
	var n uint64
	for _, s := range r.subs {
		n += s.bad.Load()
	}
	return n
}

// waitProgress parks the caller until a subscriber reports progress or d
// passes.
func (r *pubRig) waitProgress(d time.Duration) {
	t := time.NewTimer(d)
	select {
	case <-r.progress:
	case <-t.C:
	}
	t.Stop()
}

// drain waits until every subscriber has received all sent events, or the
// drain budget runs out, and returns how many the slowest one received.
func (r *pubRig) drain(base []uint64, sent int) (int, error) {
	deadline := time.Now().Add(drainMax)
	for {
		got := r.minDelivered(base)
		if got >= sent || time.Now().After(deadline) {
			return got, r.kids.alive()
		}
		r.waitProgress(time.Millisecond)
	}
}

// settle fills in the failure accounting of a finished segment: an event
// counts as failed when any subscriber missed it or the verifier rejected it.
func (r *pubRig) settle(res *segResult, base []uint64, bad0 uint64) error {
	got, err := r.drain(base, res.Attempted)
	res.Failed = res.Attempted - got + int(r.badFrames()-bad0)
	if res.Failed > res.Attempted {
		res.Failed = res.Attempted
	}
	if res.Failed > 0 {
		// Said at once and on stderr, so that a failed run explains itself.
		fmt.Fprintf(os.Stderr, "bench: %s: segment of %d events: slowest subscriber received %d within %v, verifier rejected %d frames\n",
			r.w.Name, res.Attempted, got, drainMax, r.badFrames()-bad0)
	}
	return err
}

// closed keeps at most Window events outstanding at the slowest subscriber
// for d and reports how many were fully delivered in that time.
func (r *pubRig) closed(d time.Duration) (segResult, error) {
	var res segResult
	base, bad0 := r.counts(), r.badFrames()
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		out := res.Attempted - r.minDelivered(base)
		if out >= r.w.Window {
			r.waitProgress(50 * time.Millisecond)
			continue
		}
		n := r.w.Window - out
		if n > 16 {
			n = 16
		}
		if err := r.publish(n, ""); err != nil {
			return res, err
		}
		res.Attempted += n
	}
	res.Completed = r.minDelivered(base)
	res.Wall = time.Since(start)
	err := r.settle(&res, base, bad0)
	if res.Completed > res.Attempted-res.Failed {
		res.Completed = res.Attempted - res.Failed
	}
	return res, err
}

// open publishes Rate events per second on the tick schedule for d and
// reports each event's latency from its due time.
func (r *pubRig) open(d time.Duration) (segResult, error) {
	perTick := r.w.Rate * int(tickPeriod) / int(time.Second)
	ticks := int(d / tickPeriod)
	res := segResult{Attempted: ticks * perTick, Wall: time.Duration(ticks) * tickPeriod}
	seg := &openSeg{base: r.seq, due: make([]atomic.Int64, res.Attempted), lat: make([]int64, res.Attempted)}
	r.seg.Store(seg)
	defer r.seg.Store(nil)
	base, bad0 := r.counts(), r.badFrames()

	sched := newSchedule(wallClock{}, time.Now(), tickPeriod)
	for k := 0; k < ticks; k++ {
		// Frames are built before the tick is waited for, so the generator's
		// own encoding time is not part of the latency.
		r.prepare(perTick, "")
		due := mono(sched.due(k))
		for i := k * perTick; i < (k+1)*perTick; i++ {
			seg.due[i].Store(due)
		}
		// The program's egress queues drop their oldest frame once 512 are
		// waiting, so a generator that catches up after a stall without any
		// flow control loses events. Like a real publisher it waits while a
		// full window is outstanding; the events keep their due times, so
		// the wait is charged to their latency.
		for (k+1)*perTick-r.minDelivered(base) > r.w.Window+perTick && time.Since(sched.start) < d+drainMax {
			r.waitProgress(time.Millisecond)
		}
		if err := r.send(); err != nil {
			return res, err
		}
	}
	err := r.settle(&res, base, bad0)
	res.TimerLate, res.SchedLate = sched.timerLate, sched.schedLate
	for i, l := range seg.lat {
		if l == 0 {
			continue
		}
		res.Lat = append(res.Lat, l)
		if r.traced && len(res.Ops) < spanOps {
			due := seg.due[i].Load()
			res.Ops = append(res.Ops, opRecord{ID: strconv.FormatUint(seg.base+uint64(i), 10), Due: due, Start: due, End: due + l})
		}
	}
	res.Completed = res.Attempted - res.Failed
	return res, err
}

// churnLoop subscribes and unsubscribes rotating non-matching patterns at
// the workload's rate, on an absolute schedule, until stopped.
func (r *pubRig) churnLoop() {
	defer close(r.churnDone)
	conn := r.extras[len(r.extras)-1].conn
	period := time.Second / time.Duration(r.w.ChurnRate)
	start := time.Now()
	for n := 0; ; n++ {
		if wait := time.Until(start.Add(time.Duration(n) * period)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-r.churnStop:
				t.Stop()
				return
			case <-t.C:
			}
		}
		pattern, subscribe, ok := r.in.churnOp(n)
		if !ok {
			continue
		}
		typ := event.TypeUnsubscribe
		if subscribe {
			typ = event.TypeSubscribe
		}
		if err := sendControl(conn, typ, pattern); err != nil {
			r.churnErr = err
			return
		}
	}
}

// finish checks what only the end of a run can show: the ballast and churn
// connections received nothing during measurement, and the churn connection
// is still served (its last subscription delivers a probe, which also proves
// every churn operation before it was handled).
func (r *pubRig) finish() []string {
	var bad []string
	if r.churnStop != nil {
		close(r.churnStop)
		<-r.churnDone
		r.churnStop = nil
		if r.churnErr != nil {
			bad = append(bad, fmt.Sprintf("churn connection failed: %v", r.churnErr))
		}
	}
	for i, s := range r.extras {
		if got := s.count.Load(); got != r.extraBase[i] {
			bad = append(bad, fmt.Sprintf("non-matching connection %d received %d frames during measurement", i, got-r.extraBase[i]))
		}
	}
	if r.w.ChurnRate > 0 && r.churnErr == nil {
		churn := r.extras[len(r.extras)-1]
		err := sendControl(churn.conn, event.TypeSubscribe, churnLive)
		deadline := time.Now().Add(drainMax)
		for err == nil && churn.count.Load() == r.extraBase[len(r.extraBase)-1] {
			if time.Now().After(deadline) {
				err = fmt.Errorf("no delivery within %v", drainMax)
				break
			}
			err = r.publish(1, churnLive)
			time.Sleep(time.Millisecond)
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("churn connection no longer served: %v", err))
		}
	}
	return bad
}

// close drops the generator's connections, waits for its goroutines and
// stops the children.
func (r *pubRig) close() {
	if r.churnStop != nil {
		close(r.churnStop)
		<-r.churnDone
		r.churnStop = nil
	}
	if r.pub != nil {
		_ = r.pub.Close()
	}
	for _, s := range append(append([]*subscriber(nil), r.subs...), r.extras...) {
		_ = s.conn.Close()
		<-s.done
	}
	r.kids.stop()
}
