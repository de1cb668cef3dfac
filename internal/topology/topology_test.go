package topology

import (
	"math/rand"
	"testing"
	"time"

	"narada/internal/broker"
	"narada/internal/metrics"
	"narada/internal/ntptime"
	"narada/internal/simnet"
	"narada/internal/transport"
)

// makeBrokers starts n brokers at one site of the paper WAN: a shape does not
// depend on the delays of its links, and a LAN link is up in a millisecond.
func makeBrokers(t *testing.T, n int, seed int64) []*broker.Broker {
	t.Helper()
	net := simnet.NewPaperWAN(simnet.Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	out := make([]*broker.Broker, n)
	for i := 0; i < n; i++ {
		site := simnet.SiteIndianapolis
		skew := net.RandomSkew(20 * time.Millisecond)
		node := transport.NewSimNode(net, site, nodeName(i), skew)
		ntp := ntptime.NewService(node.Clock(), skew, rng)
		ntp.InitImmediately()
		b, err := broker.New(node, ntp, broker.Config{
			LogicalAddress: nodeName(i),
			Realm:          site,
			Sampler:        metrics.NewStaticSampler(metrics.Usage{TotalMemBytes: 1 << 29}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Close)
		out[i] = b
	}
	return out
}

func nodeName(i int) string {
	return string(rune('A'+i)) + "-broker"
}

func settle(bs []*broker.Broker) {
	// Links register asynchronously on the accept side.
	time.Sleep(50 * time.Millisecond)
	_ = bs
}

func indexOf(bs []*broker.Broker) func(string) int {
	return func(logical string) int {
		for i, b := range bs {
			if b.LogicalAddress() == logical {
				return i
			}
		}
		return -1
	}
}

func TestUnconnectedNoEdges(t *testing.T) {
	bs := makeBrokers(t, 4, 1)
	edges, err := BuildUnconnected(bs)
	if err != nil || edges != nil {
		t.Fatalf("edges=%v err=%v", edges, err)
	}
	for _, b := range bs {
		if b.LinkCount() != 0 {
			t.Fatalf("%s has %d links", b.LogicalAddress(), b.LinkCount())
		}
	}
}

func TestStarShape(t *testing.T) {
	bs := makeBrokers(t, 5, 2)
	edges, err := BuildStar(bs)
	if err != nil {
		t.Fatal(err)
	}
	settle(bs)
	if len(edges) != 4 {
		t.Fatalf("edges = %d", len(edges))
	}
	if bs[0].LinkCount() != 4 {
		t.Fatalf("hub links = %d, want 4", bs[0].LinkCount())
	}
	for _, b := range bs[1:] {
		if b.LinkCount() != 1 {
			t.Fatalf("spoke %s links = %d, want 1", b.LogicalAddress(), b.LinkCount())
		}
	}
	if d := Diameter(len(bs), edges, indexOf(bs)); d != 2 {
		t.Fatalf("star diameter = %d, want 2", d)
	}
}

func TestLinearShape(t *testing.T) {
	bs := makeBrokers(t, 5, 3)
	edges, err := BuildLinear(bs)
	if err != nil {
		t.Fatal(err)
	}
	settle(bs)
	if len(edges) != 4 {
		t.Fatalf("edges = %d", len(edges))
	}
	if bs[0].LinkCount() != 1 || bs[4].LinkCount() != 1 {
		t.Fatal("chain ends should have 1 link")
	}
	for _, b := range bs[1:4] {
		if b.LinkCount() != 2 {
			t.Fatalf("middle %s links = %d, want 2", b.LogicalAddress(), b.LinkCount())
		}
	}
	if d := Diameter(len(bs), edges, indexOf(bs)); d != 4 {
		t.Fatalf("chain diameter = %d, want 4", d)
	}
}

func TestRingShape(t *testing.T) {
	bs := makeBrokers(t, 5, 4)
	edges, err := BuildRing(bs)
	if err != nil {
		t.Fatal(err)
	}
	settle(bs)
	if len(edges) != 5 {
		t.Fatalf("edges = %d", len(edges))
	}
	for _, b := range bs {
		if b.LinkCount() != 2 {
			t.Fatalf("%s links = %d, want 2", b.LogicalAddress(), b.LinkCount())
		}
	}
	if d := Diameter(len(bs), edges, indexOf(bs)); d != 2 {
		t.Fatalf("5-ring diameter = %d, want 2", d)
	}
}

func TestMeshShape(t *testing.T) {
	bs := makeBrokers(t, 4, 5)
	edges, err := BuildMesh(bs)
	if err != nil {
		t.Fatal(err)
	}
	settle(bs)
	if len(edges) != 6 {
		t.Fatalf("edges = %d, want 6", len(edges))
	}
	if d := Diameter(len(bs), edges, indexOf(bs)); d != 1 {
		t.Fatalf("mesh diameter = %d, want 1", d)
	}
}

func TestTreeShape(t *testing.T) {
	bs := makeBrokers(t, 6, 6)
	edges, err := BuildTree(bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	settle(bs)
	if len(edges) != 5 {
		t.Fatalf("edges = %d, want 5", len(edges))
	}
	if _, err := BuildTree(bs, 0); err == nil {
		t.Fatal("arity 0 accepted")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{Unconnected, Star, Linear, Ring, Mesh, Tree} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("torus"); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestDiameterDisconnected(t *testing.T) {
	if d := Diameter(3, nil, func(string) int { return -1 }); d != -1 {
		t.Fatalf("Diameter of edgeless graph = %d, want -1", d)
	}
}
