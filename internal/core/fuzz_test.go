package core

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"narada/internal/metrics"
	"narada/internal/uuid"
)

// coreCodec is one protocol message's decoder and encoder behind a single
// bytes-to-bytes step, so any input can be put to all six of them.
type coreCodec struct {
	name   string
	sample []byte // a valid encoding
	// reencode decodes b and encodes what came out.
	reencode func(b []byte) ([]byte, error)
}

func codecOf[T any](name string, sample *T, enc func(*T) []byte, dec func([]byte) (*T, error)) coreCodec {
	return coreCodec{name: name, sample: enc(sample), reencode: func(b []byte) ([]byte, error) {
		v, err := dec(b)
		if err != nil {
			return nil, err
		}
		return enc(v), nil
	}}
}

func coreCodecs() []coreCodec {
	id := uuid.UUID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	at := time.Date(2005, 7, 1, 8, 0, 0, 0, time.UTC)
	return []coreCodec{
		codecOf("advertisement", &Advertisement{Broker: sampleBrokerInfo(), IssuedAt: at, TTL: 30 * time.Second},
			EncodeAdvertisement, DecodeAdvertisement),
		codecOf("request", &DiscoveryRequest{ID: id, Requester: "r", Realm: "fsu", ResponseAddr: "127.0.0.1:4000",
			Protocols: []string{"tcp", "udp"}, Credentials: []byte("c"), IssuedAt: at, Hops: 2},
			EncodeDiscoveryRequest, DecodeDiscoveryRequest),
		codecOf("response", &DiscoveryResponse{RequestID: id, Timestamp: at, Broker: sampleBrokerInfo(),
			Usage: metrics.Usage{TotalMemBytes: 1 << 30, UsedMemBytes: 1 << 20, Links: 3, CPULoad: 0.25}},
			EncodeDiscoveryResponse, DecodeDiscoveryResponse),
		codecOf("ack", &Ack{RequestID: id, BDN: "gridservicelocator.org"}, EncodeAck, DecodeAck),
		codecOf("ping", &Ping{ID: id, SentAt: at, Seq: 2}, EncodePing, DecodePing),
		codecOf("pong", &Pong{ID: id, EchoSent: at, Seq: 2, Responder: "broker-fsu"}, EncodePong, DecodePong),
	}
}

// garbage returns n random inputs of up to 255 bytes, the same ones on every
// call.
func garbage(n int) [][]byte {
	rng := rand.New(rand.NewSource(1234))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, rng.Intn(256))
		rng.Read(out[i])
	}
	return out
}

// checkDecodeReencode is the decoders' contract with the network: b, which
// may be anything, produces an error or a value — never a panic — and a value
// that decoded re-encodes to bytes that decode, again, to that same value
// (compared as encodings, so a NaN load is equal to itself).
func checkDecodeReencode(t *testing.T, c coreCodec, b []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic on %d bytes % x: %v", c.name, len(b), b, r)
		}
	}()
	first, err := c.reencode(b)
	if err != nil {
		return
	}
	second, err := c.reencode(first)
	if err != nil {
		t.Fatalf("%s: decoded % x, but its re-encoding % x does not decode: %v", c.name, b, first, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("%s: % x re-encodes to % x, which decodes to a different value (% x)", c.name, b, first, second)
	}
}

// TestDecodersNeverPanic drives every protocol decoder with random garbage:
// a hostile or corrupted datagram must produce an error, never a panic —
// brokers decode traffic straight off the wire.
func TestDecodersNeverPanic(t *testing.T) {
	codecs := coreCodecs()
	for _, buf := range garbage(2000) {
		for _, c := range codecs {
			checkDecodeReencode(t, c, buf)
		}
	}
}

// FuzzCoreDecoders puts one input to all six decoders under
// checkDecodeReencode, starting from a valid encoding of each message and a
// few of TestDecodersNeverPanic's inputs. These are the bytes the UDP
// handlers take from the network.
func FuzzCoreDecoders(f *testing.F) {
	codecs := coreCodecs()
	for _, c := range codecs {
		f.Add(c.sample)
	}
	for _, b := range garbage(32) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, c := range codecs {
			checkDecodeReencode(t, c, b)
		}
	})
}

// TestDecodersRejectBitFlips corrupts valid encodings one byte at a time:
// every mutation must either decode to *something* structurally valid or
// error — never panic — and truncations must always error.
func TestDecodersRejectBitFlips(t *testing.T) {
	valid := map[string]struct {
		blob   []byte
		decode func([]byte) error
	}{
		"request": {
			EncodeDiscoveryRequest(&DiscoveryRequest{Requester: "r", ResponseAddr: "a/b:1",
				Protocols: []string{"tcp"}, Credentials: []byte("c")}),
			func(b []byte) error { _, err := DecodeDiscoveryRequest(b); return err },
		},
		"response": {
			EncodeDiscoveryResponse(&DiscoveryResponse{Broker: sampleBrokerInfo()}),
			func(b []byte) error { _, err := DecodeDiscoveryResponse(b); return err },
		},
	}
	for name, v := range valid {
		for i := range v.blob {
			mutated := append([]byte(nil), v.blob...)
			mutated[i] ^= 0xFF
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: panic with byte %d flipped: %v", name, i, r)
					}
				}()
				_ = v.decode(mutated)
			}()
		}
		for cut := 0; cut < len(v.blob); cut++ {
			if err := v.decode(v.blob[:cut]); err == nil {
				t.Errorf("%s: truncation at %d accepted", name, cut)
			}
		}
	}
}
