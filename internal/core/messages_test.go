package core

import (
	"testing"
	"testing/quick"
	"time"

	"narada/internal/metrics"
	"narada/internal/uuid"
)

func sampleBrokerInfo() BrokerInfo {
	return BrokerInfo{
		LogicalAddress: "broker-fsu",
		Hostname:       "pamd2.fsit.fsu.edu",
		Realm:          "fsu",
		Endpoints: []TransportEndpoint{
			{Protocol: "tcp", Address: "fsu/broker-fsu:10001"},
			{Protocol: "udp", Address: "fsu/broker-fsu:10002"},
		},
		Geo:         "Tallahassee, FL, USA",
		Institution: "Florida State University",
	}
}

func brokersEqual(a, b BrokerInfo) bool {
	if a.LogicalAddress != b.LogicalAddress || a.Hostname != b.Hostname ||
		a.Realm != b.Realm || a.Geo != b.Geo || a.Institution != b.Institution ||
		len(a.Endpoints) != len(b.Endpoints) {
		return false
	}
	for i := range a.Endpoints {
		if a.Endpoints[i] != b.Endpoints[i] {
			return false
		}
	}
	return true
}

func TestBrokerInfoEndpoint(t *testing.T) {
	b := sampleBrokerInfo()
	if b.Endpoint("udp") != "fsu/broker-fsu:10002" {
		t.Fatalf("Endpoint(udp) = %q", b.Endpoint("udp"))
	}
	if b.Endpoint("carrier-pigeon") != "" {
		t.Fatal("unknown protocol returned an endpoint")
	}
}

func TestAdvertisementRoundTrip(t *testing.T) {
	a := &Advertisement{
		Broker:   sampleBrokerInfo(),
		IssuedAt: time.Date(2005, 7, 1, 8, 0, 0, 0, time.UTC),
	}
	got, err := DecodeAdvertisement(EncodeAdvertisement(a))
	if err != nil {
		t.Fatal(err)
	}
	if !brokersEqual(got.Broker, a.Broker) || !got.IssuedAt.Equal(a.IssuedAt) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestAdvertisementRejectsGarbage(t *testing.T) {
	if _, err := DecodeAdvertisement([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDiscoveryRequestRoundTrip(t *testing.T) {
	q := &DiscoveryRequest{
		ID:           uuid.New(),
		Requester:    "client-bloomington",
		Realm:        "bloomington",
		ResponseAddr: "bloomington/client:20001",
		Protocols:    []string{"tcp", "udp"},
		Credentials:  []byte("secret"),
		IssuedAt:     time.Date(2005, 7, 1, 9, 0, 0, 0, time.UTC),
		Hops:         3,
	}
	got, err := DecodeDiscoveryRequest(EncodeDiscoveryRequest(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != q.ID || got.Requester != q.Requester || got.Realm != q.Realm ||
		got.ResponseAddr != q.ResponseAddr || string(got.Credentials) != "secret" ||
		!got.IssuedAt.Equal(q.IssuedAt) || got.Hops != 3 || len(got.Protocols) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestDiscoveryRequestPropertyRoundTrip(t *testing.T) {
	f := func(id [16]byte, requester, realm, respAddr string, creds []byte, hops uint8) bool {
		q := &DiscoveryRequest{
			ID:           uuid.UUID(id),
			Requester:    requester,
			Realm:        realm,
			ResponseAddr: respAddr,
			Credentials:  creds,
			Hops:         hops,
		}
		got, err := DecodeDiscoveryRequest(EncodeDiscoveryRequest(q))
		if err != nil {
			return false
		}
		return got.ID == q.ID && got.Requester == requester &&
			got.ResponseAddr == respAddr && got.Hops == hops &&
			string(got.Credentials) == string(creds)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoveryResponseRoundTrip(t *testing.T) {
	p := &DiscoveryResponse{
		RequestID: uuid.New(),
		Timestamp: time.Date(2005, 7, 1, 9, 0, 1, 500, time.UTC),
		Broker:    sampleBrokerInfo(),
		Usage: metrics.Usage{
			TotalMemBytes: 512 << 20,
			UsedMemBytes:  100 << 20,
			Links:         4,
			CPULoad:       0.35,
		},
	}
	got, err := DecodeDiscoveryResponse(EncodeDiscoveryResponse(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.RequestID != p.RequestID || !got.Timestamp.Equal(p.Timestamp) ||
		!brokersEqual(got.Broker, p.Broker) || got.Usage != p.Usage {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestAckRoundTrip(t *testing.T) {
	a := &Ack{RequestID: uuid.New(), BDN: "gridservicelocator.org"}
	got, err := DecodeAck(EncodeAck(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.RequestID != a.RequestID || got.BDN != a.BDN {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestPingPongRoundTrip(t *testing.T) {
	ping := &Ping{ID: uuid.New(), SentAt: time.Unix(1120212000, 42).UTC(), Seq: 7}
	gotPing, err := DecodePing(EncodePing(ping))
	if err != nil {
		t.Fatal(err)
	}
	if gotPing.ID != ping.ID || !gotPing.SentAt.Equal(ping.SentAt) || gotPing.Seq != 7 {
		t.Fatalf("ping mismatch: %+v", gotPing)
	}
	pong := &Pong{ID: ping.ID, EchoSent: ping.SentAt, Seq: 7, Responder: "broker-umn"}
	gotPong, err := DecodePong(EncodePong(pong))
	if err != nil {
		t.Fatal(err)
	}
	if gotPong.ID != pong.ID || !gotPong.EchoSent.Equal(pong.EchoSent) ||
		gotPong.Seq != 7 || gotPong.Responder != "broker-umn" {
		t.Fatalf("pong mismatch: %+v", gotPong)
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	adv := EncodeAdvertisement(&Advertisement{Broker: sampleBrokerInfo()})
	req := EncodeDiscoveryRequest(&DiscoveryRequest{ID: uuid.New(), Requester: "x"})
	resp := EncodeDiscoveryResponse(&DiscoveryResponse{RequestID: uuid.New(), Broker: sampleBrokerInfo()})
	for name, blob := range map[string][]byte{"adv": adv, "req": req, "resp": resp} {
		for _, cut := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
			var err error
			switch name {
			case "adv":
				_, err = DecodeAdvertisement(blob[:cut])
			case "req":
				_, err = DecodeDiscoveryRequest(blob[:cut])
			case "resp":
				_, err = DecodeDiscoveryResponse(blob[:cut])
			}
			if err == nil {
				t.Errorf("%s truncated at %d accepted", name, cut)
			}
		}
	}
}

func BenchmarkEncodeDiscoveryResponse(b *testing.B) {
	p := &DiscoveryResponse{
		RequestID: uuid.New(),
		Timestamp: time.Now(),
		Broker:    sampleBrokerInfo(),
		Usage:     metrics.Usage{TotalMemBytes: 512 << 20, UsedMemBytes: 100 << 20, Links: 4, CPULoad: 0.3},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeDiscoveryResponse(p)
	}
}

func BenchmarkDecodeDiscoveryResponse(b *testing.B) {
	blob := EncodeDiscoveryResponse(&DiscoveryResponse{
		RequestID: uuid.New(),
		Timestamp: time.Now(),
		Broker:    sampleBrokerInfo(),
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDiscoveryResponse(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeRequest is the requester's first rung: the request body and
// the event frame around it, trace context included.
func BenchmarkEncodeRequest(b *testing.B) {
	d := &Discoverer{cfg: Config{NodeName: "bench-req"}}
	req := &DiscoveryRequest{
		ID:           uuid.New(),
		Requester:    "bench-req",
		Realm:        "bloomington",
		ResponseAddr: "127.0.0.1:40000",
		Protocols:    []string{"tcp", "udp"},
		IssuedAt:     time.Now(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(d.requestFrame(req)) == 0 {
			b.Fatal("empty frame")
		}
	}
}
