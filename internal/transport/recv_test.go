package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

// FuzzStreamFraming sends frames of the sizes the input picks, from empty to
// about three read buffers, over a loopback realConn, with the writer cutting
// the stream where the input says, and receives each through RecvInto into no
// storage, storage too short for it, or storage that holds it. Every frame
// must arrive intact and in order, in the caller's storage when it fits.
//
// Each 4-byte record of the input is one frame: a big-endian uint16 times 3/2
// is its size, the third byte modulo 3 picks the receive storage, and a
// non-zero fourth byte cuts the writer's stream that many 256ths into the
// frame (prefix included).
func FuzzStreamFraming(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 3, 0, 66, 2, 128})
	f.Add([]byte{0x55, 0x55, 2, 0, 0, 9, 1, 1, 0x55, 0x52, 0, 255, 0, 0, 2, 2})
	f.Add([]byte{0xff, 0xff, 1, 7, 0xff, 0xff, 2, 250, 0x2a, 0xab, 0, 1, 0, 3, 2, 0})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { l.Close() })
	const maxFrames = 32
	ample := make([]byte, 0, 3*recvBufSize)
	f.Fuzz(func(t *testing.T, spec []byte) {
		var wire []byte
		var frames [][]byte
		var kinds []byte
		cuts := []int{0}
		for i := 0; len(spec) >= 4 && i < maxFrames; i, spec = i+1, spec[4:] {
			frame := make([]byte, int(binary.BigEndian.Uint16(spec))*3/2)
			for j := range frame {
				frame[j] = byte(i*37) ^ byte(j) ^ byte(j>>8)
			}
			if spec[3] != 0 {
				cuts = append(cuts, len(wire)+int(spec[3])*(PrefixLen+len(frame))/256)
			}
			wire = append(wire, framed(frame)...)
			frames = append(frames, frame)
			kinds = append(kinds, spec[2]%3)
		}
		cuts = append(cuts, len(wire))

		raw, c := lingerlessPair(t, l)
		if err := c.c.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err) // a stuck receive fails rather than hangs the fuzzer
		}
		wrote := make(chan error, 1)
		go func() {
			for i := 1; i < len(cuts); i++ {
				if _, err := raw.Write(wire[cuts[i-1]:cuts[i]]); err != nil {
					wrote <- err
					return
				}
			}
			wrote <- nil
		}()
		for i, want := range frames {
			var buf []byte
			switch kinds[i] {
			case 1:
				buf = make([]byte, 0, len(want)/2)
			case 2:
				buf = ample
			}
			got, err := c.RecvInto(buf)
			if err != nil {
				t.Fatalf("frame %d of %d bytes: %v", i, len(want), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: %d bytes arrived for the %d sent, or differ", i, len(got), len(want))
			}
			if kinds[i] == 2 && len(want) > 0 && &got[0] != &ample[:1][0] {
				t.Fatalf("frame %d of %d bytes: not in the caller's %d-byte storage", i, len(want), cap(ample))
			}
		}
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		if c.FrameBuffered() {
			t.Fatal("a frame counts as buffered after the last one sent")
		}
	})
}

// lingerlessPair is rawPair for a fuzz target: both ends reset instead of
// lingering in TIME_WAIT when closed, so many inputs use up no ports.
func lingerlessPair(t *testing.T, l net.Listener) (*net.TCPConn, *realConn) {
	t.Helper()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := l.Accept()
	if err != nil {
		raw.Close()
		t.Fatal(err)
	}
	for _, tc := range []*net.TCPConn{raw.(*net.TCPConn), acc.(*net.TCPConn)} {
		tc.SetLinger(0) //nolint:errcheck // a lingering close costs a port, not the test
		t.Cleanup(func() { tc.Close() })
	}
	return raw.(*net.TCPConn), newRealConn(acc)
}

// TestRealStreamBulkPayloadBypassesReadBuffer: a 16 KiB payload is read
// straight into the caller's storage, and never lands in (or is copied out
// of) the connection's read buffer — both when its prefix was read ahead
// behind an earlier frame and when the whole frame arrives with nothing read
// ahead. The frame behind it is read ahead in the same call.
func TestRealStreamBulkPayloadBypassesReadBuffer(t *testing.T) {
	raw, c := rawPair(t)
	rc := c.(*realConn) // no receive is in flight when the test reads its state
	rng := rand.New(rand.NewSource(47))
	store := make([]byte, 0, 16<<10)
	bulk := func(what string, wire []byte, payload []byte) {
		t.Helper()
		if _, err := raw.Write(append(wire, framed([]byte("behind"))...)); err != nil {
			t.Fatal(err)
		}
		got, err := c.RecvInto(store)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: %d bytes, %v", what, len(got), err)
		}
		if &got[0] != &store[:1][0] {
			t.Fatalf("%s: the payload is not in the caller's storage", what)
		}
		for i := 0; i+16 <= len(payload); i += 16 {
			if bytes.Contains(rc.rbuf[:], payload[i:i+16]) {
				t.Fatalf("%s: payload bytes %d..%d passed through the read buffer", what, i, i+16)
			}
		}
		if !c.FrameBuffered() {
			t.Fatalf("%s: the frame behind the payload was not read ahead with it", what)
		}
		if got := recvWithin(t, c); string(got) != "behind" {
			t.Fatalf("%s: got %q", what, got)
		}
	}

	payload := make([]byte, cap(store))
	rng.Read(payload)
	// The first frame and the bulk frame's prefix arrive in one segment.
	if _, err := raw.Write(append(framed([]byte("small")), framed(payload)[:PrefixLen]...)); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, c); string(got) != "small" {
		t.Fatalf("got %q", got)
	}
	if rc.w-rc.r != PrefixLen {
		t.Fatalf("%d bytes buffered after the first frame, want the bulk frame's %d-byte prefix", rc.w-rc.r, PrefixLen)
	}
	bulk("prefix read ahead", payload, payload)

	rng.Read(payload)
	if rc.w != rc.r {
		t.Fatalf("%d bytes still buffered", rc.w-rc.r)
	}
	bulk("nothing read ahead", framed(payload), payload)
}

// TestRealStreamDeadlineInPrefixAtBufferEnd: a receive that times out on a
// length prefix cut at the read buffer's end — its first bytes read ahead
// behind a frame that filled the buffer — resumes in sync: the prefix's
// bytes move to the buffer's front, and the next receive completes the frame.
func TestRealStreamDeadlineInPrefixAtBufferEnd(t *testing.T) {
	raw, c := rawPair(t)
	first := bytes.Repeat([]byte{'a'}, recvBufSize-PrefixLen-2)
	second := framed([]byte("second"))
	if _, err := raw.Write(append(framed(first), second[:2]...)); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, c); !bytes.Equal(got, first) {
		t.Fatalf("first frame: %d bytes", len(got))
	}
	for i := 0; i < 2; i++ {
		if _, err := c.RecvTimeout(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("prefix cut at the buffer's end, poll %d: err = %v, want ErrTimeout", i, err)
		}
	}
	if _, err := raw.Write(append(second[2:], framed([]byte("third"))...)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"second", "third"} {
		got, err := c.RecvTimeout(2 * time.Second)
		if err != nil || string(got) != want {
			t.Fatalf("got %q, %v; want %q", got, err, want)
		}
	}
}

// TestRealStreamFrameBufferedMeansNoSyscall: FrameBuffered is true exactly
// when the next receive makes no read syscall. With the socket's read
// deadline already past, a receive that reads fails at once with ErrTimeout
// (before any syscall), so a buffered frame must still arrive and an
// unbuffered one must time out, the stream left in sync.
func TestRealStreamFrameBufferedMeansNoSyscall(t *testing.T) {
	raw, conn := rawPair(t)
	c := conn.(*realConn)
	expired := func() {
		if err := c.c.SetReadDeadline(time.Unix(1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	// step receives the next frame with the deadline past: buffered reports
	// whether FrameBuffered said it would need no read.
	step := func(want string) (buffered bool) {
		t.Helper()
		buffered = c.FrameBuffered()
		expired()
		got, err := c.RecvInto(nil)
		switch {
		case buffered && (err != nil || string(got) != want):
			t.Fatalf("FrameBuffered, but the receive got %q, %v; want %q with no read", got, err, want)
		case !buffered && !errors.Is(err, ErrTimeout):
			t.Fatalf("not FrameBuffered, but the receive got %q, %v without a read", got, err)
		}
		return buffered
	}
	bulk := bytes.Repeat([]byte{'b'}, 2*recvBufSize)
	third := framed([]byte("three"))
	burst := append(append(framed([]byte("one")), framed([]byte("two"))...), third[:2]...)
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	if step("one") {
		t.Fatal("FrameBuffered before any receive")
	}
	c.c.SetReadDeadline(time.Time{}) //nolint:errcheck
	if got := recvWithin(t, c); string(got) != "one" {
		t.Fatalf("got %q", got)
	}
	if !step("two") {
		t.Fatal("the second frame of one segment is not buffered")
	}
	if step("three") {
		t.Fatal("half a prefix counts as a buffered frame")
	}
	c.c.SetReadDeadline(time.Time{}) //nolint:errcheck
	// The rest of the third frame, a frame larger than the read buffer, which
	// can never be buffered whole, and a small one behind it, in one segment.
	if _, err := raw.Write(append(append(third[2:], framed(bulk)...), framed([]byte("four"))...)); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, c); string(got) != "three" {
		t.Fatalf("got %q", got)
	}
	if c.FrameBuffered() {
		t.Fatal("a frame larger than the read buffer counts as buffered")
	}
	if got := recvWithin(t, c); !bytes.Equal(got, bulk) {
		t.Fatalf("bulk frame: %d bytes", len(got))
	}
	if !step("four") {
		t.Fatal("the frame read ahead behind the bulk frame is not buffered")
	}
	if step("") {
		t.Fatal("FrameBuffered with nothing sent")
	}
	c.c.SetReadDeadline(time.Time{}) //nolint:errcheck
	if _, err := raw.Write(framed([]byte("five"))); err != nil {
		t.Fatal(err)
	}
	if got := recvWithin(t, c); string(got) != "five" {
		t.Fatalf("after the polls: got %q", got)
	}
}
