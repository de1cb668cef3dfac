package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"narada/internal/simnet"
)

// newSimPair returns two nodes of one site of a paper WAN, the second with a
// skewed clock: the transport's contract does not depend on a path's delay,
// and the LAN's costs no wall time.
func newSimPair(t *testing.T) (*SimNode, *SimNode) {
	t.Helper()
	n := simnet.NewPaperWAN(simnet.Config{Seed: 42})
	a := NewSimNode(n, simnet.SiteIndianapolis, "a", 0)
	b := NewSimNode(n, simnet.SiteIndianapolis, "b", 5*time.Millisecond)
	return a, b
}

func TestParseSimAddr(t *testing.T) {
	a, err := ParseSimAddr("fsu/broker1:42")
	if err != nil {
		t.Fatal(err)
	}
	want := simnet.Addr{Site: "fsu", Host: "broker1", Port: 42}
	if a != want {
		t.Fatalf("got %+v", a)
	}
	if FormatSimAddr(want) != "fsu/broker1:42" {
		t.Fatalf("FormatSimAddr = %q", FormatSimAddr(want))
	}
	for _, bad := range []string{"", "nohost", "fsu/x", "x:1", "fsu/x:notaport"} {
		if _, err := ParseSimAddr(bad); err == nil {
			t.Errorf("ParseSimAddr(%q) accepted", bad)
		}
	}
}

func TestSimPacketRoundTrip(t *testing.T) {
	a, b := newSimPair(t)
	pa, err := a.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Send(pb.LocalAddr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	payload, from, err := pb.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "hello" || from != pa.LocalAddr() {
		t.Fatalf("got %q from %q", payload, from)
	}
}

func TestSimPacketTimeout(t *testing.T) {
	a, _ := newSimPair(t)
	pa, _ := a.ListenPacket(0)
	if _, _, err := pa.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestSimStreamRoundTrip(t *testing.T) {
	a, b := newSimPair(t)
	l, err := b.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := srv.Recv()
			if err != nil {
				return
			}
			if err := srv.Send(append([]byte("echo:"), msg...)); err != nil {
				return
			}
		}
	}()
	c, err := a.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := c.RecvTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:ping" {
		t.Fatalf("got %q", got)
	}
	_ = c.Close()
}

func TestSimMulticastViaInterface(t *testing.T) {
	t.Parallel()
	n := simnet.NewPaperWAN(simnet.Config{Seed: 7})
	client := NewSimNode(n, simnet.SiteBloomington, "cli", 0)
	labBroker := NewSimNode(n, simnet.SiteIndianapolis, "b1", 0)
	farBroker := NewSimNode(n, simnet.SiteCardiff, "b2", 0)

	pc, _ := client.ListenPacket(0)
	pl, _ := labBroker.ListenPacket(0)
	pf, _ := farBroker.ListenPacket(0)
	const group = "narada/discovery"
	_ = pl.JoinGroup(group)
	_ = pf.JoinGroup(group)

	if err := pc.SendGroup(group, []byte("anyone")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.RecvTimeout(2 * time.Second); err != nil {
		t.Fatalf("lab broker missed multicast: %v", err)
	}
	if _, _, err := pf.RecvTimeout(100 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("realm scoping failed: %v", err)
	}
}

func TestRealPacketRoundTrip(t *testing.T) {
	pa, pb := realPacketPair(t)
	if err := pa.Send(pb.LocalAddr(), []byte("real-udp")); err != nil {
		t.Fatal(err)
	}
	payload, from, err := pb.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "real-udp" || from == "" {
		t.Fatalf("got %q from %q", payload, from)
	}
}

// TestRealPacketRecvOwnsItsDatagram pins the receive contract the pooled read
// buffer keeps: what Recv returns belongs to the caller — a later receive (on
// any goroutine) must not overwrite it — concurrent receivers each get a
// whole datagram, and the slice is sized to the datagram, so holding on to it
// does not pin a maximum-size buffer.
func TestRealPacketRecvOwnsItsDatagram(t *testing.T) {
	tx, rx := realPacketPair(t)

	const receivers, each = 4, 50
	got := make(chan []byte, receivers*each)
	for r := 0; r < receivers; r++ {
		go func() {
			for {
				p, _, err := rx.RecvTimeout(2 * time.Second)
				if err != nil {
					return
				}
				got <- p
			}
		}()
	}
	for i := 0; i < receivers*each; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 1+i)
		if err := tx.Send(rx.LocalAddr(), msg); err != nil {
			t.Fatal(err)
		}
		// Loopback UDP can drop under a burst; pace on the receipt.
		select {
		case p := <-got:
			if cap(p) > len(p)+64 { // allocator size-class rounding, no more
				t.Fatalf("datagram of %d bytes retains %d", len(p), cap(p))
			}
			if !bytes.Equal(p, msg) {
				t.Fatalf("datagram %d corrupted: %d bytes, first %v", i, len(p), p[:1])
			}
			defer func(p, want []byte) {
				if !bytes.Equal(p, want) {
					t.Errorf("datagram overwritten by a later receive")
				}
			}(p, msg)
		case <-time.After(2 * time.Second):
			t.Fatalf("datagram %d never arrived", i)
		}
	}
}

// realPacketPair returns two loopback datagram endpoints.
func realPacketPair(tb testing.TB) (tx, rx PacketConn) {
	tb.Helper()
	node := NewRealNode("127.0.0.1", nil)
	tx, err := node.ListenPacket(0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tx.Close() })
	rx, err = node.ListenPacket(0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rx.Close() })
	return tx, rx
}

// datagramRoundTrip sends msg from tx to rx, whose address is to, and
// receives it.
func datagramRoundTrip(tb testing.TB, tx, rx PacketConn, to string, msg []byte) {
	if err := tx.Send(to, msg); err != nil {
		tb.Fatal(err)
	}
	if _, _, err := rx.RecvTimeout(2 * time.Second); err != nil {
		tb.Fatal(err)
	}
}

// TestRealPacketRecvAllocationBound: one datagram sent and received costs a
// handful of small allocations (the copy, the sender's address and its
// string), not a maximum-size read buffer.
func TestRealPacketRecvAllocationBound(t *testing.T) {
	tx, rx := realPacketPair(t)
	to, msg := rx.LocalAddr(), make([]byte, 100)
	roundTrip := func() { datagramRoundTrip(t, tx, rx, to, msg) }
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, roundTrip); allocs > 8 {
		t.Errorf("send + receive of one datagram: %.0f allocs, want <= 8", allocs)
	}
	if raceEnabled {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 1024 {
		t.Errorf("send + receive of one datagram allocates %d B, want <= 1024", perOp)
	}
}

// TestRealPacketSendAddressForms: literal addresses skip the resolver, names
// still go through it, and what neither can read is an error, not a panic or
// a silent drop.
func TestRealPacketSendAddressForms(t *testing.T) {
	tx, rx := realPacketPair(t)
	_, port, err := net.SplitHostPort(rx.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range []string{rx.LocalAddr(), "localhost:" + port, "[::ffff:127.0.0.1]:" + port} {
		if err := tx.Send(to, []byte(to)); err != nil {
			t.Fatalf("Send(%q): %v", to, err)
		}
		got, _, err := rx.RecvTimeout(2 * time.Second)
		if err != nil || string(got) != to {
			t.Fatalf("Send(%q) delivered %q, %v", to, got, err)
		}
	}
	for _, to := range []string{"", "127.0.0.1", "127.0.0.1:notaport", "no such host.invalid:1", "[::1"} {
		if err := tx.Send(to, []byte("x")); err == nil {
			t.Errorf("Send(%q) succeeded", to)
		}
	}
}

func TestRealPacketTimeout(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	pc, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, _, err := pc.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRealStreamRoundTripAndFraming(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	l, err := node.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		defer srv.Close()
		for i := 0; i < 3; i++ {
			msg, err := srv.Recv()
			if err != nil {
				return
			}
			if err := srv.Send(msg); err != nil {
				return
			}
		}
	}()
	c, err := node.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Mixed sizes, including empty, must frame cleanly.
	for _, msg := range [][]byte{[]byte("x"), {}, make([]byte, 100000)} {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := c.RecvTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(msg) {
			t.Fatalf("echo size = %d, want %d", len(got), len(msg))
		}
	}
}

// TestRealStreamConcurrentSendsStayWhole: Send writes prefix and payload in
// one vectored write under the write lock, so frames sent from many
// goroutines arrive whole and in some order, never interleaved.
func TestRealStreamConcurrentSendsStayWhole(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	l, err := node.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const senders, each = 8, 200
	received := make(chan error, 1)
	go func() {
		srv, err := l.Accept()
		if err != nil {
			received <- err
			return
		}
		defer srv.Close()
		seen := make(map[[2]byte]bool)
		for i := 0; i < senders*each; i++ {
			msg, err := srv.RecvTimeout(5 * time.Second)
			if err != nil {
				received <- fmt.Errorf("frame %d: %v", i, err)
				return
			}
			// A frame is (sender, n) then n+1 bytes of value sender.
			if len(msg) < 2 || len(msg) != 3+int(msg[1]) || bytes.Count(msg[2:], msg[:1]) != len(msg)-2 {
				received <- fmt.Errorf("frame %d is not one sender's frame: % x", i, msg)
				return
			}
			seen[[2]byte{msg[0], msg[1]}] = true
		}
		if len(seen) != senders*each {
			received <- fmt.Errorf("%d distinct frames, want %d", len(seen), senders*each)
			return
		}
		received <- nil
	}()
	c, err := node.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for n := 0; n < each; n++ {
				msg := append([]byte{byte(s), byte(n)}, bytes.Repeat([]byte{byte(s)}, n+1)...)
				if err := c.Send(msg); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := <-received; err != nil {
		t.Fatal(err)
	}
}

// rawPair returns a raw TCP writer and the framed Conn reading from it, so a
// test can put partial frames on the wire.
func rawPair(t *testing.T) (net.Conn, Conn) {
	t.Helper()
	node := NewRealNode("127.0.0.1", nil)
	l, err := node.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return raw, c
}

func framed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// streamPair is a connection under test, a, and its peer, b. partial is true
// where the transport carries a byte stream, which can deliver part of a
// frame, and false where it carries whole frames (simnet).
type streamPair struct {
	a, b    Conn
	partial bool
}

// eachTransport runs test over a loopback TCP pair and over a simnet pair:
// Conn is one contract, and both transports must keep it.
func eachTransport(t *testing.T, test func(t *testing.T, p streamPair)) {
	t.Run("loopback", func(t *testing.T) {
		raw, c := rawPair(t)
		test(t, streamPair{a: c, b: newRealConn(raw), partial: true})
	})
	t.Run("simnet", func(t *testing.T) {
		na, nb := newSimPair(t)
		l, err := nb.Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		a, err := na.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		test(t, streamPair{a: a, b: b})
	})
}

// writeWire puts stream — frames behind their length prefixes — on c's
// sending side: as raw bytes on a socket, where a frame may be cut anywhere,
// and as the whole frames it holds on simnet.
func writeWire(c Conn, stream []byte) error {
	if rc, ok := c.(*realConn); ok {
		_, err := rc.c.Write(stream)
		return err
	}
	for len(stream) > 0 {
		n := PrefixLen + int(binary.BigEndian.Uint32(stream))
		if err := c.Send(stream[PrefixLen:n]); err != nil {
			return err
		}
		stream = stream[n:]
	}
	return nil
}

// recvWithin receives the next frame on c with Recv, failing if none comes
// within 10 s.
func recvWithin(t *testing.T, c Conn) []byte {
	t.Helper()
	type result struct {
		frame []byte
		err   error
	}
	got := make(chan result, 1)
	go func() {
		frame, err := c.Recv()
		got <- result{frame, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.frame
	case <-time.After(10 * time.Second):
		t.Fatal("no frame within 10s")
		return nil
	}
}

// TestRealStreamMidFrameTimeoutFailsClosed: a read deadline that expires
// after the length prefix was consumed loses the stream position. The
// connection must then fail every later receive — never hand back the rest of
// the payload parsed as a new frame — and not with ErrTimeout, which a
// polling caller would retry forever.
func TestRealStreamMidFrameTimeoutFailsClosed(t *testing.T) {
	raw, c := rawPair(t)
	payload := bytes.Repeat([]byte{0, 0, 0, 1, 'x'}, 40) // parses as tiny frames if misread
	wire := framed(payload)
	half := 4 + len(payload)/2
	if _, err := raw.Write(wire[:half]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("mid-frame deadline: err = %v, want ErrTimeout", err)
	}
	if _, err := raw.Write(wire[half:]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.RecvTimeout(200 * time.Millisecond)
		if err == nil {
			t.Fatalf("receive %d after a mid-frame failure returned %d bytes of garbage", i, len(got))
		}
		if errors.Is(err, ErrTimeout) {
			t.Fatalf("receive %d after a mid-frame failure reports a retryable timeout", i)
		}
	}
}

// TestRealStreamTimeoutBetweenFramesResumes: the common poll — RecvTimeout on
// an idle connection, or one that has seen only part of a length prefix — must
// leave the stream in sync.
func TestRealStreamTimeoutBetweenFramesResumes(t *testing.T) {
	raw, c := rawPair(t)
	if _, err := c.RecvTimeout(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("idle: err = %v, want ErrTimeout", err)
	}
	wire := framed([]byte("after-the-poll"))
	if _, err := raw.Write(wire[:2]); err != nil { // half a prefix
		t.Fatal(err)
	}
	if _, err := c.RecvTimeout(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("half prefix: err = %v, want ErrTimeout", err)
	}
	if _, err := raw.Write(wire[2:]); err != nil {
		t.Fatal(err)
	}
	got, err := c.RecvTimeout(2 * time.Second)
	if err != nil || string(got) != "after-the-poll" {
		t.Fatalf("got %q, %v", got, err)
	}
}

// TestRealStreamBurstFraming drains one written burst of mixed-size frames —
// empty, tiny, straddling the read buffer's edge, and larger than the whole
// buffer — through Recv and RecvInto alternately. Every frame must come back
// intact, and on a socket RecvInto must use the caller's storage when it fits
// and a fresh slice when it does not (simnet hands over the copy it made).
func TestRealStreamBurstFraming(t *testing.T) {
	eachTransport(t, func(t *testing.T, p streamPair) {
		sizes := []int{0, 1, 100, recvBufSize - 150, 300, recvBufSize, 7, 3 * recvBufSize, 64, 0, 5000}
		rng := rand.New(rand.NewSource(5))
		var burst []byte
		frames := make([][]byte, len(sizes))
		for i, n := range sizes {
			frames[i] = make([]byte, n)
			rng.Read(frames[i])
			burst = append(burst, framed(frames[i])...)
		}
		go writeWire(p.b, burst) //nolint:errcheck // a failed write fails the reads below

		store := make([]byte, 0, 4096)
		for i, want := range frames {
			var got []byte
			var err error
			if i%2 == 0 {
				got, err = p.a.RecvInto(store)
				inStore := cap(got) > 0 && &got[:1][0] == &store[:1][0]
				if fits := len(want) <= cap(store); p.partial && len(want) > 0 && inStore != fits {
					t.Fatalf("frame %d (%d bytes): in caller storage = %v, want %v", i, len(want), inStore, fits)
				}
			} else {
				got, err = p.a.Recv()
			}
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: %d bytes differ from the %d sent", i, len(got), len(want))
			}
		}
	})
}

// TestRealStreamReadBufferIsNotSharedAcrossConns: read buffers are pooled, so
// a connection closed with frames still buffered hands its reader to the next
// connection — which must see its own stream only, and the closed connection
// must keep failing rather than read through a buffer it no longer owns.
func TestRealStreamReadBufferIsNotSharedAcrossConns(t *testing.T) {
	for round := 0; round < 20; round++ {
		raw, c := rawPair(t)
		mine := []byte(fmt.Sprintf("round-%d", round))
		burst := append(framed(mine), framed([]byte("left behind in the buffer"))...)
		if _, err := raw.Write(burst); err != nil {
			t.Fatal(err)
		}
		got, err := c.RecvTimeout(2 * time.Second)
		if err != nil || !bytes.Equal(got, mine) {
			t.Fatalf("round %d: got %q, %v", round, got, err)
		}
		c.Close() // one frame unread
		if _, err := c.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: receive on a closed connection: %v, want ErrClosed", round, err)
		}
	}
}

// TestRealStreamFrameBuffered: FrameBuffered is true exactly while the next
// frame has arrived whole — not before anything has, and not for part of a
// prefix or a payload, which a byte stream can deliver.
func TestRealStreamFrameBuffered(t *testing.T) {
	eachTransport(t, func(t *testing.T, p streamPair) {
		if p.a.FrameBuffered() {
			t.Fatal("FrameBuffered before any receive")
		}
		third := framed([]byte("third"))
		cut := 0 // what of the third frame arrives with the first two
		if p.partial {
			cut = 6
		}
		burst := append(append(framed([]byte("one")), framed([]byte("two"))...), third[:cut]...)
		if err := writeWire(p.b, burst); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, p.a)
		for deadline := time.Now().Add(10 * time.Second); !p.a.FrameBuffered(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("after frame 1: the second frame never counts as buffered")
			}
		}
		recvWithin(t, p.a)
		if p.a.FrameBuffered() {
			t.Fatal("after frame 2: FrameBuffered with no whole frame waiting")
		}
		if err := writeWire(p.b, third[cut:]); err != nil {
			t.Fatal(err)
		}
		if got := recvWithin(t, p.a); string(got) != "third" {
			t.Fatalf("got %q", got)
		}
	})
}

// TestRealWriteBatchSkip resumes a batch at every offset of its stream that
// the transport can stop at — on a socket every byte: inside a length prefix,
// on a prefix/payload boundary, inside a payload, on an empty frame; on
// simnet every frame boundary — blocking and non-blocking. The bytes before
// skip go out by hand first; the peer must receive the batch exactly once,
// and WriteBatch must report the bytes after skip.
func TestRealWriteBatchSkip(t *testing.T) {
	eachTransport(t, func(t *testing.T, p streamPair) {
		frames := [][]byte{[]byte("first"), {}, []byte("0123456789"), {0xff}}
		var stream []byte
		bounds := map[int]bool{0: true}
		for _, f := range frames {
			stream = append(stream, framed(f)...)
			bounds[len(stream)] = true
		}
		for _, wait := range []bool{true, false} {
			for skip := 0; skip <= len(stream); skip++ {
				if !p.partial && !bounds[skip] {
					continue
				}
				if err := writeWire(p.a, stream[:skip]); err != nil {
					t.Fatal(err)
				}
				n, err := p.a.WriteBatch(frames, skip, wait)
				if err != nil || n != len(stream)-skip {
					t.Fatalf("wait=%v skip=%d: wrote %d, %v; want %d", wait, skip, n, err, len(stream)-skip)
				}
				for i, want := range frames {
					if got := recvWithin(t, p.b); !bytes.Equal(got, want) {
						t.Fatalf("wait=%v skip=%d: frame %d arrived as %x, want %x", wait, skip, i, got, want)
					}
				}
			}
		}
	})
}

// TestRealWriteBatchNonBlocking fills a connection whose peer does not
// receive with non-blocking writes: none may wait, and the connection must
// eventually take less than asked — on simnet, a whole number of frames. A
// blocking resume then finishes that batch while the peer drains, and the
// peer must receive every batch whole and in order.
func TestRealWriteBatchNonBlocking(t *testing.T) {
	eachTransport(t, func(t *testing.T, p streamPair) {
		batch := make([][]byte, 16)
		bounds := map[int]bool{0: true}
		wire := 0
		for i := range batch {
			batch[i] = bytes.Repeat([]byte{byte(i)}, 4000)
			wire += PrefixLen + len(batch[i])
			bounds[wire] = true
		}
		written, n := 0, wire
		for calls := 0; n == wire; calls++ {
			if calls > 100000 {
				t.Fatal("the connection never pushed back")
			}
			start := time.Now()
			var err error
			if n, err = p.a.WriteBatch(batch, 0, false); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("a non-blocking write took %v", d)
			}
			written += n
		}
		if !p.partial && !bounds[n] {
			t.Fatalf("a non-blocking write stopped %d bytes in, inside a frame", n)
		}
		frames := (written - n) / wire * len(batch) // whole batches
		if n > 0 {
			frames += len(batch)
		}
		read := make(chan error, 1)
		go func() {
			for i := 0; i < frames; i++ {
				got, err := p.b.Recv()
				if err == nil && !bytes.Equal(got, batch[i%len(batch)]) {
					err = fmt.Errorf("frame %d of %d arrived corrupted", i, frames)
				}
				if err != nil {
					read <- err
					return
				}
			}
			read <- nil
		}()
		if n > 0 { // finish the batch part-way through, as an egress hand-off does
			if rest, err := p.a.WriteBatch(batch, n, true); err != nil || n+rest != wire {
				t.Fatalf("resume at %d wrote %d, %v", n, rest, err)
			}
		}
		select {
		case err := <-read:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("the peer did not receive every frame within 30s")
		}
	})
}

func TestRealStreamClosedPeer(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	l, err := node.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		srv, err := l.Accept()
		if err == nil {
			_ = srv.Close()
		}
	}()
	c, err := node.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RecvTimeout(2 * time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestRealOversizedFrameRejected(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	l, _ := node.Listen(0)
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			_, _ = c.Recv()
		}
	}()
	c, err := node.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestRealMulticastLoopback(t *testing.T) {
	// IP multicast may be unavailable in constrained environments; skip then.
	node := NewRealNode("", nil)
	recvPC, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer recvPC.Close()
	const group = "narada/discovery"
	if err := recvPC.JoinGroup(group); err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	sendPC, err := node.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sendPC.Close()
	if err := sendPC.SendGroup(group, []byte("mc")); err != nil {
		t.Skipf("multicast send unavailable: %v", err)
	}
	payload, _, err := recvPC.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Skipf("multicast delivery unavailable: %v", err)
	}
	if string(payload) != "mc" {
		t.Fatalf("got %q", payload)
	}
}

func TestRealUnknownGroup(t *testing.T) {
	node := NewRealNode("127.0.0.1", map[string]string{})
	pc, _ := node.ListenPacket(0)
	defer pc.Close()
	if err := pc.JoinGroup("not-a-group-or-addr"); err == nil {
		t.Fatal("unknown group accepted")
	}
}

func TestNodeInterfaceCompliance(t *testing.T) {
	var _ Node = (*SimNode)(nil)
	var _ Node = (*RealNode)(nil)
}

// BenchmarkRealPacketRecv is the discovery ladder's transport rung: one
// 100-byte datagram (a discovery response is about that size) sent over
// loopback and received with RecvTimeout. scripts/bench_gate.sh gates its
// B/op so a per-datagram maximum-size buffer cannot come back unnoticed.
func BenchmarkRealPacketRecv(b *testing.B) {
	tx, rx := realPacketPair(b)
	to, msg := rx.LocalAddr(), make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		datagramRoundTrip(b, tx, rx, to, msg)
	}
}

func BenchmarkSimStreamThroughput(b *testing.B) {
	n := simnet.NewPaperWAN(simnet.Config{Seed: 1})
	a := NewSimNode(n, simnet.SiteBloomington, "a", 0)
	c := NewSimNode(n, simnet.SiteIndianapolis, "c", 0)
	l, _ := c.Listen(0)
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := srv.Recv(); err != nil {
				return
			}
		}
	}()
	conn, err := a.Dial(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleParseSimAddr() {
	addr, _ := ParseSimAddr("cardiff/broker2:10042")
	fmt.Println(addr.Site, addr.Host, addr.Port)
	// Output: cardiff broker2 10042
}
