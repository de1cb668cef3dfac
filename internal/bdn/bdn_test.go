package bdn

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"narada/internal/core"
	"narada/internal/event"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
	"narada/internal/uuid"
	"narada/internal/wal"
)

// The tests in this file and in persist_test.go and exchange_test.go wait on
// no clock: configuration, codecs, allocation and logging. Every test that
// waits on model time runs on the exact lane, in the files tagged
// goexperiment.synctest.

const mib = 1024 * 1024

func TestNewRequiresName(t *testing.T) {
	node := transport.NewSimNode(simnet.NewPaperWAN(simnet.Config{Seed: 1}), simnet.SiteBloomington, "x", 0)
	if _, err := New(node, nil, Config{}); err == nil {
		t.Fatal("missing name accepted")
	}
}

// scriptedConn is a registration or requester connection whose peer is the
// benchmark: Send counts what the BDN writes and drops it.
type scriptedConn struct {
	transport.Conn
	sent int
}

func (c *scriptedConn) Send([]byte) error { c.sent++; return nil }

// TestBrokerCountAllocFree: the registry gauge reads BrokerCount on every
// /metrics scrape, so counting must not copy or sort the table.
// TestPickClosestFarthestMatchesStableSort holds the one-pass pick to the
// stable sort it replaced: over random distance tables with ties and
// unmeasured brokers, both choose the same two brokers.
func TestPickClosestFarthestMatchesStableSort(t *testing.T) {
	sortPick := func(all []registration) (registration, registration) {
		byDist := append([]registration(nil), all...)
		sort.SliceStable(byDist, func(i, j int) bool {
			di, dj := byDist[i].distance, byDist[j].distance
			switch {
			case di == 0:
				return false
			case dj == 0:
				return true
			default:
				return di < dj
			}
		})
		return byDist[0], byDist[len(byDist)-1]
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		all := make([]registration, n)
		for i := range all {
			// Few distinct values: ties among measured brokers and among
			// unmeasured ones (0) are common.
			all[i] = registration{
				ad:       &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: fmt.Sprintf("b%d", i)}},
				distance: time.Duration(rng.Intn(4)) * time.Millisecond,
			}
		}
		wantNear, wantFar := sortPick(all)
		near, far := pickClosestFarthest(all)
		if near.ad != wantNear.ad || far.ad != wantFar.ad {
			t.Fatalf("trial %d: distances %v: picked %s, %s; stable sort picks %s, %s", trial, distances(all),
				near.ad.Broker.LogicalAddress, far.ad.Broker.LogicalAddress,
				wantNear.ad.Broker.LogicalAddress, wantFar.ad.Broker.LogicalAddress)
		}
	}
}

func distances(all []registration) []time.Duration {
	out := make([]time.Duration, len(all))
	for i := range all {
		out[i] = all[i].distance
	}
	return out
}

func TestBrokerCountAllocFree(t *testing.T) {
	net := simnet.NewPaperWAN(simnet.Config{Seed: 1})
	node := transport.NewSimNode(net, simnet.SiteBloomington, "count-bdn", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	d, err := New(node, ntp, Config{Name: "count-bdn"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"broker-c", "broker-a", "broker-b"} {
		ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: name}}
		if d.storeAdvertisement(event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(ad)), nil) == "" {
			t.Fatalf("advertisement of %s not stored", name)
		}
	}
	if n := d.BrokerCount(); n != 3 {
		t.Fatalf("BrokerCount = %d, want 3", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { d.BrokerCount() }); allocs != 0 {
		t.Fatalf("BrokerCount allocates %.1f/op, want 0", allocs)
	}
}

// levelRecorder is a slog.Handler that keeps each record's level and message.
type levelRecorder struct {
	mu   sync.Mutex
	recs []string
}

func (h *levelRecorder) Enabled(context.Context, slog.Level) bool { return true }
func (h *levelRecorder) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.recs = append(h.recs, r.Level.String()+" "+r.Message)
	h.mu.Unlock()
	return nil
}
func (h *levelRecorder) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *levelRecorder) WithGroup(string) slog.Handler      { return h }

// TestRefreshLogsAtDebug: a new registration is an Info line, a refresh of
// one the BDN already holds only a Debug line.
func TestRefreshLogsAtDebug(t *testing.T) {
	net := simnet.NewPaperWAN(simnet.Config{Seed: 1})
	node := transport.NewSimNode(net, simnet.SiteBloomington, "log-bdn", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	rec := &levelRecorder{}
	cfg := Config{Name: "log-bdn"}
	cfg.Logger = slog.New(rec)
	d, err := New(node, ntp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "broker-a"}}
	for i := 0; i < 3; i++ {
		if d.storeAdvertisement(event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(ad)), nil) == "" {
			t.Fatal("advertisement not stored")
		}
	}
	want := []string{"INFO advertisement stored", "DEBUG advertisement stored", "DEBUG advertisement stored"}
	if fmt.Sprint(rec.recs) != fmt.Sprint(want) {
		t.Fatalf("logged %q, want %q", rec.recs, want)
	}
}

// BenchmarkBDNProcessRequest is the BDN's rung of the discovery ladder: one
// decoded request acknowledged on its session and injected at two registered
// brokers, every connection scripted so only the BDN's own work is timed.
func BenchmarkBDNProcessRequest(b *testing.B) {
	net := simnet.NewPaperWAN(simnet.Config{Seed: 1})
	node := transport.NewSimNode(net, simnet.SiteBloomington, "bench-bdn", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	d, err := New(node, ntp, Config{Name: "bench-bdn"})
	if err != nil {
		b.Fatal(err)
	}
	var regs [2]scriptedConn
	for i := range regs {
		ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "broker-" + string(rune('a'+i))}}
		ev := event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(ad))
		if d.storeAdvertisement(ev, &regs[i]) == "" {
			b.Fatal("advertisement not stored")
		}
	}
	req := &core.DiscoveryRequest{Requester: "bench-req", ResponseAddr: "127.0.0.1:4000",
		Protocols: []string{"tcp", "udp"}}
	ev := event.New(event.TypeDiscoveryRequest, "", nil)
	ev.Source = req.Requester
	var session scriptedConn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uuid.New() // a repeated UUID would be acknowledged but not injected
		ev.Payload = core.EncodeDiscoveryRequest(req)
		ev.SetTrace(req.ID.String(), req.Requester, 0)
		d.processRequest(&session, ev, req)
	}
	b.StopTimer()
	if session.sent != b.N || regs[0].sent != b.N || regs[1].sent != b.N {
		b.Fatalf("%d requests: %d acks, %d + %d injections", b.N, session.sent, regs[0].sent, regs[1].sent)
	}
}

// BenchmarkStoreAdvertisement is the registry's rung: one broker refreshing
// its registration at a durable BDN — decode, admit, commit the upsert, append
// it to the WAL. SyncNever and no snapshots, so the disk's fsync is not what
// is timed.
func BenchmarkStoreAdvertisement(b *testing.B) {
	net := simnet.NewPaperWAN(simnet.Config{Seed: 1})
	node := transport.NewSimNode(net, simnet.SiteBloomington, "bench-bdn", 0)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately()
	d, err := New(node, ntp, Config{Name: "bench-bdn", DataDir: b.TempDir(), Fsync: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	d.snapEvery = 1 << 30
	if err := d.Start(); err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ad := &core.Advertisement{Broker: core.BrokerInfo{LogicalAddress: "broker-a", Realm: "bloomington",
		Endpoints: []core.TransportEndpoint{{Protocol: "tcp", Address: "127.0.0.1:5045"},
			{Protocol: "udp", Address: "127.0.0.1:5046"}}}, TTL: time.Minute}
	ev := event.New(event.TypeAdvertisement, "", core.EncodeAdvertisement(ad))
	var reg scriptedConn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.storeAdvertisement(ev, &reg) == "" {
			b.Fatal("advertisement not stored")
		}
	}
}
