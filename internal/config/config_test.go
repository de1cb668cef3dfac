package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"narada/internal/dedup"
)

func TestBrokerValidate(t *testing.T) {
	b := &Broker{LogicalAddress: "b1"}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.DedupCapacity != dedup.DefaultCapacity {
		t.Fatalf("DedupCapacity = %d", b.DedupCapacity)
	}
	if err := (&Broker{}).Validate(); err == nil {
		t.Fatal("missing logicalAddress accepted")
	}
	if err := (&Broker{LogicalAddress: "x", DedupCapacity: -1}).Validate(); err == nil {
		t.Fatal("negative dedupCapacity accepted")
	}
}

func TestBrokerPolicy(t *testing.T) {
	b := &Broker{LogicalAddress: "b1", RequiredCredential: "s", AllowedRealms: []string{"r"}}
	p := b.Policy()
	if string(p.RequiredCredential) != "s" || len(p.AllowedRealms) != 1 {
		t.Fatalf("policy = %+v", p)
	}
	open := (&Broker{LogicalAddress: "b"}).Policy()
	if open.RequiredCredential != nil {
		t.Fatal("open policy has credential")
	}
}

func TestBDNValidate(t *testing.T) {
	good := []BDN{
		{Name: "gsl.org"},
		{Name: "gsl.org", Policy: "all"},
		{Name: "gsl.org", Policy: "closest-farthest"},
		{Name: "corp", Private: true, RequiredCredential: "badge"},
	}
	for i := range good {
		if err := good[i].Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
	bad := []BDN{
		{},
		{Name: "x", Policy: "bogus"},
		{Name: "x", Private: true},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("bad[%d] accepted", i)
		}
	}
}

func TestBDNInjectOverhead(t *testing.T) {
	d := BDN{Name: "x", InjectOverheadMs: 40}
	if d.InjectOverhead() != 40*time.Millisecond {
		t.Fatalf("InjectOverhead = %v", d.InjectOverhead())
	}
}

func TestNodeValidate(t *testing.T) {
	if err := (&Node{Name: "n", BDNs: []string{"a:1"}}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Node{Name: "n", MulticastGroup: "g"}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Node{BDNs: []string{"a:1"}}).Validate(); err == nil {
		t.Fatal("missing name accepted")
	}
	if err := (&Node{Name: "n"}).Validate(); err == nil {
		t.Fatal("node with no discovery path accepted")
	}
}

func TestNodeDiscoveryConfig(t *testing.T) {
	n := &Node{
		Name:            "client",
		Realm:           "bloomington",
		BDNs:            []string{"gsl.org:7000", "gsl.com:7000"},
		CollectWindowMs: 4000,
		MaxResponses:    5,
		TargetSetSize:   10,
		PingCount:       3,
		Credential:      "badge",
		WeightNumLinks:  0.7,
	}
	cfg := n.DiscoveryConfig()
	if cfg.NodeName != "client" || len(cfg.BDNAddrs) != 2 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.CollectWindow != 4*time.Second || cfg.MaxResponses != 5 {
		t.Fatalf("window/max = %v/%d", cfg.CollectWindow, cfg.MaxResponses)
	}
	if cfg.Selection.Weights.NumLinks != 0.7 {
		t.Fatalf("weights = %+v", cfg.Selection.Weights)
	}
	if string(cfg.Credentials) != "badge" {
		t.Fatalf("credentials = %q", cfg.Credentials)
	}
	// Zero weights stay zero here (defaults are filled by the Discoverer).
	cfg2 := (&Node{Name: "n", BDNs: []string{"a"}}).DiscoveryConfig()
	if cfg2.Selection.Weights.NumLinks != 0 {
		t.Fatal("unexpected default weights at config layer")
	}
}

// writeJSON writes v to path as a configuration file.
func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadSaveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broker.json")
	orig := &Broker{
		LogicalAddress: "broker-fsu",
		Realm:          "fsu",
		BDNs:           []string{"bloomington/bdn:7000"},
		Links:          []string{"umn/broker-umn:10001"},
	}
	writeJSON(t, path, orig)
	var got Broker
	if err := Load(path, &got); err != nil {
		t.Fatal(err)
	}
	if got.LogicalAddress != "broker-fsu" || len(got.BDNs) != 1 || len(got.Links) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.DedupCapacity != dedup.DefaultCapacity {
		t.Fatal("defaults not filled on load")
	}
}

func TestLoadErrors(t *testing.T) {
	var b Broker
	if err := Load(filepath.Join(t.TempDir(), "missing.json"), &b); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	writeJSON(t, bad, "not an object")
	if err := Load(bad, &b); err == nil {
		t.Fatal("malformed config accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	writeJSON(t, empty, map[string]string{})
	if err := Load(empty, &b); err == nil {
		t.Fatal("invalid (empty) broker config accepted")
	}
}
