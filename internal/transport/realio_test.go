package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// TestRealPacketConcurrentReceivers: eight goroutines receiving on one
// datagram socket get every datagram whole and exactly once. Each receive
// takes its call state from a pool, and none holds a lock while it waits.
func TestRealPacketConcurrentReceivers(t *testing.T) {
	tx, rx := realPacketPair(t)
	const receivers, total = 8, 800
	const window = receivers
	got := make(chan []byte, total)
	var wg sync.WaitGroup
	for r := 0; r < receivers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p, _, err := rx.Recv()
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("receive: %v", err)
					}
					return
				}
				got <- p
			}
		}()
	}
	// Datagram i is its index, then i%300 bytes of value byte(i).
	datagram := func(i int) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(i)), bytes.Repeat([]byte{byte(i)}, i%300)...)
	}
	seen := make([]bool, total)
	receive := func() {
		select {
		case p := <-got:
			if len(p) < 4 {
				t.Fatalf("a %d-byte datagram", len(p))
			}
			i := int(binary.BigEndian.Uint32(p))
			if i >= total || !bytes.Equal(p, datagram(i)) {
				t.Fatalf("datagram %d arrived corrupted: %d bytes", i, len(p))
			}
			if seen[i] {
				t.Fatalf("datagram %d received twice", i)
			}
			seen[i] = true
		case <-time.After(5 * time.Second):
			t.Fatal("a datagram never arrived")
		}
	}
	// Loopback UDP can drop a burst: keep at most one datagram per receiver
	// in flight.
	for i := 0; i < total; i++ {
		if i >= window {
			receive()
		}
		if err := tx.Send(rx.LocalAddr(), datagram(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < window; i++ {
		receive()
	}
	rx.Close()
	wg.Wait()
	if len(got) > 0 {
		t.Fatalf("%d datagrams more than were sent", len(got))
	}
}

// TestRealCloseUnblocksRecv: Close wakes a receive parked on an empty socket,
// with or without a deadline, on either connection kind, and it returns
// ErrClosed.
func TestRealCloseUnblocksRecv(t *testing.T) {
	node := NewRealNode("127.0.0.1", nil)
	for name, timeout := range map[string]time.Duration{"Recv": 0, "RecvTimeout": time.Minute} {
		t.Run("datagram/"+name, func(t *testing.T) {
			pc, err := node.ListenPacket(0)
			if err != nil {
				t.Fatal(err)
			}
			closeWhileReceiving(t, pc.Close, func() error {
				if timeout == 0 {
					_, _, err := pc.Recv()
					return err
				}
				_, _, err := pc.RecvTimeout(timeout)
				return err
			})
		})
		t.Run("stream/"+name, func(t *testing.T) {
			_, c := rawPair(t)
			closeWhileReceiving(t, c.Close, func() error {
				if timeout == 0 {
					_, err := c.Recv()
					return err
				}
				_, err := c.RecvTimeout(timeout)
				return err
			})
		})
	}
}

func closeWhileReceiving(t *testing.T, close func() error, recv func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- recv() }()
	time.Sleep(20 * time.Millisecond) // let the receive park
	if err := close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("receive ended with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the receive")
	}
}

// TestRealStreamPeerCloseIsErrClosed: a peer that sends one frame and hangs
// up delivers that frame, and every receive after it — through the read
// buffer or into a caller's storage — fails with ErrClosed; the end of the
// stream never reads as a zero-length frame.
func TestRealStreamPeerCloseIsErrClosed(t *testing.T) {
	raw, c := rawPair(t)
	if _, err := raw.Write(framed([]byte("last words"))); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	if got, err := c.RecvTimeout(2 * time.Second); err != nil || string(got) != "last words" {
		t.Fatalf("got %q, %v", got, err)
	}
	for i := 0; i < 3; i++ {
		var got []byte
		var err error
		if i%2 == 0 {
			got, err = c.RecvTimeout(2 * time.Second)
		} else {
			got, err = c.RecvInto(make([]byte, 0, 64))
		}
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("receive %d after the peer's close: %d bytes, %v; want ErrClosed", i, len(got), err)
		}
	}
}

// TestRealSendBatchLargeFrameToSlowPeer: a blocking SendBatch of a 4 MiB
// frame, far more than the socket buffers hold, parks and resumes until the
// last byte is written while the peer drains slowly, and the frame arrives
// whole.
func TestRealSendBatchLargeFrameToSlowPeer(t *testing.T) {
	raw, c := rawPair(t)
	frame := make([]byte, 4<<20)
	rand.New(rand.NewSource(9)).Read(frame)
	received := make(chan []byte, 1)
	go func() {
		var wire []byte
		chunk := make([]byte, 64<<10)
		for len(wire) < PrefixLen+len(frame) {
			n, err := raw.Read(chunk)
			if err != nil {
				break
			}
			wire = append(wire, chunk[:n]...)
			time.Sleep(200 * time.Microsecond)
		}
		received <- wire
	}()
	if err := c.SendBatch([][]byte{frame}); err != nil {
		t.Fatal(err)
	}
	select {
	case wire := <-received:
		if !bytes.Equal(wire, framed(frame)) {
			t.Fatalf("received %d bytes, not the %d-byte frame behind its prefix", len(wire), len(frame))
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the peer did not receive the frame within 30s")
	}
}

// TestRealPacketPeerAddress: a datagram round-trips on every socket family,
// and the sender address a receive reports is the sender's own, as
// LocalAddr writes it — an IPv4 peer of a dual-stack socket unmapped — so a
// reply sent to it arrives.
func TestRealPacketPeerAddress(t *testing.T) {
	for _, c := range []struct{ name, bindTx, bindRx, to string }{
		{"ipv4", "127.0.0.1", "127.0.0.1", "127.0.0.1"},
		{"ipv6", "::1", "::1", "::1"},
		{"ipv4 to dual-stack", "127.0.0.1", "", "127.0.0.1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tx, err := NewRealNode(c.bindTx, nil).ListenPacket(0)
			if err != nil {
				t.Skipf("no %s loopback: %v", c.name, err)
			}
			defer tx.Close()
			rx, err := NewRealNode(c.bindRx, nil).ListenPacket(0)
			if err != nil {
				t.Skipf("no %s loopback: %v", c.name, err)
			}
			defer rx.Close()
			_, port, _ := net.SplitHostPort(rx.LocalAddr())
			if err := tx.Send(net.JoinHostPort(c.to, port), []byte("ping")); err != nil {
				t.Fatal(err)
			}
			got, from, err := rx.RecvTimeout(2 * time.Second)
			if err != nil || string(got) != "ping" {
				t.Fatalf("got %q, %v", got, err)
			}
			if from != tx.LocalAddr() {
				t.Fatalf("sender reported as %q, want %q", from, tx.LocalAddr())
			}
			if err := rx.Send(from, []byte("pong")); err != nil {
				t.Fatal(err)
			}
			if got, _, err := tx.RecvTimeout(2 * time.Second); err != nil || string(got) != "pong" {
				t.Fatalf("reply: got %q, %v", got, err)
			}
		})
	}
}
