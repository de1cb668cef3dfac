//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package simnet

import (
	"fmt"
	"testing"
	"testing/synctest"
	"time"
)

// exact runs f in a synctest bubble, on the exact lane: the bubble's clock is
// the network's, so a delay takes exactly its model length. f runs
// as a subtest, so the cleanups it registers run inside the bubble.
func exact(t *testing.T, f func(t *testing.T)) {
	synctest.Run(func() { t.Run("bubble", f) })
}

func laneWAN(seed int64) *Network { return NewPaperWAN(Config{Seed: seed}) }

// TestClockIsEpochPlusElapsed: a network's clock reads the paper's epoch when
// the network is made, and Sleep(d) and After(d) each move it by exactly d.
func TestClockIsEpochPlusElapsed(t *testing.T) {
	exact(t, func(t *testing.T) {
		c := laneWAN(1).Clock()
		if got := c.Now(); !got.Equal(epoch) {
			t.Fatalf("Now = %v at creation, want %v", got, epoch)
		}
		c.Sleep(1500 * time.Millisecond)
		if got, want := c.Now(), epoch.Add(1500*time.Millisecond); !got.Equal(want) {
			t.Fatalf("after Sleep(1.5s): Now = %v, want %v", got, want)
		}
		fired := <-c.After(250 * time.Millisecond)
		want := epoch.Add(1750 * time.Millisecond)
		if got := c.Now(); !fired.Equal(want) || !got.Equal(want) {
			t.Fatalf("After(250ms) delivered %v, then Now = %v; want %v for both", fired, got, want)
		}
	})
}

func TestPacketDelayMatchesRTT(t *testing.T) {
	exact(t, func(t *testing.T) {
		n := laneWAN(3)
		a, _ := n.ListenPacket(Addr{Site: SiteBloomington, Host: "a"})
		b, _ := n.ListenPacket(Addr{Site: SiteCardiff, Host: "b"})
		start := n.Clock().Now()
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := b.RecvTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		// Half the Bloomington-Cardiff RTT.
		if got, want := n.Clock().Now().Sub(start), 60*time.Millisecond; got != want {
			t.Fatalf("one-way delay = %v, want %v", got, want)
		}
	})
}

func TestStreamRoundTrip(t *testing.T) {
	exact(t, func(t *testing.T) {
		n := laneWAN(13)
		l, err := n.Listen(Addr{Site: SiteNCSA, Host: "srv", Port: 900})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		type result struct {
			conn *Conn
			err  error
		}
		acceptCh := make(chan result, 1)
		go func() {
			c, err := l.Accept()
			acceptCh <- result{c, err}
		}()
		start := n.Clock().Now()
		client, err := n.Dial(Addr{Site: SiteBloomington, Host: "cli"}, l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		r := <-acceptCh
		if r.err != nil {
			t.Fatal(r.err)
		}
		server := r.conn
		defer server.Close()

		if err := client.Send([]byte("hello")); err != nil {
			t.Fatal(err)
		}
		got, err := server.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "hello" {
			t.Fatalf("got %q", got)
		}
		if err := server.Send([]byte("world")); err != nil {
			t.Fatal(err)
		}
		got, err = client.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "world" {
			t.Fatalf("got %q", got)
		}
		// A handshake (three one-way trips) and two frames.
		if got, want := n.Clock().Now().Sub(start), 25*time.Millisecond; got != want {
			t.Errorf("dial and round trip took %v, want %v", got, want)
		}
		if client.RemoteAddr() != l.Addr() {
			t.Fatalf("remote addr = %v", client.RemoteAddr())
		}
	})
}

func TestStreamFIFO(t *testing.T) {
	exact(t, func(t *testing.T) {
		n := laneWAN(14)
		l, _ := n.Listen(Addr{Site: SiteCardiff, Host: "srv", Port: 901})
		defer l.Close()
		go func() {
			srv, err := l.Accept()
			if err != nil {
				return
			}
			for i := 0; i < 200; i++ {
				if err := srv.Send([]byte(fmt.Sprintf("%d", i))); err != nil {
					return
				}
			}
		}()
		cli, err := n.Dial(Addr{Site: SiteBloomington, Host: "c"}, l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		for i := 0; i < 200; i++ {
			got, err := cli.RecvTimeout(10 * time.Second)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if string(got) != fmt.Sprintf("%d", i) {
				t.Fatalf("frame %d arrived as %q: order violated", i, got)
			}
		}
	})
}

func TestBandwidthDelaysLargeMessages(t *testing.T) {
	exact(t, func(t *testing.T) {
		// 1 MB/s path: a byte adds 1 us of serialisation delay.
		n := NewPaperWAN(Config{Seed: 60, BandwidthBps: 1e6})
		a, _ := n.ListenPacket(Addr{Site: SiteBloomington, Host: "a"})
		b, _ := n.ListenPacket(Addr{Site: SiteIndianapolis, Host: "b"})

		measure := func(size int) time.Duration {
			start := n.Clock().Now()
			if err := a.Send(b.Addr(), make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			if _, err := b.RecvTimeout(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			return n.Clock().Now().Sub(start)
		}
		if got, want := measure(100000)-measure(100), 99900*time.Microsecond; got != want {
			t.Fatalf("99 900 more bytes at 1 MB/s took %v longer, want %v", got, want)
		}
	})
}
