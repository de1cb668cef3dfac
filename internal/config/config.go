// Package config defines the JSON configuration files for brokers, BDNs and
// requesting nodes. The paper: "A node configuration file contains
// information regarding a set of BDNs that can manage its broker discovery
// request... A client can add information regarding any other privately run
// BDN within its configuration file too"; brokers advertise "to the BDNs
// that are listed in the broker's configuration file", and the discovery
// dedup window "can be configured through the broker configuration file".
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"narada/internal/core"
	"narada/internal/dedup"
	"narada/internal/metrics"
	"narada/internal/obs"
	"narada/internal/wal"
)

// Broker is a broker process configuration file.
type Broker struct {
	LogicalAddress string   `json:"logicalAddress"`
	Hostname       string   `json:"hostname,omitempty"`
	Realm          string   `json:"realm,omitempty"`
	Geo            string   `json:"geo,omitempty"`
	Institution    string   `json:"institution,omitempty"`
	StreamPort     int      `json:"streamPort,omitempty"`
	UDPPort        int      `json:"udpPort,omitempty"`
	DedupCapacity  int      `json:"dedupCapacity,omitempty"`
	BDNs           []string `json:"bdns,omitempty"`  // advertise to these
	Links          []string `json:"links,omitempty"` // peer broker stream addrs
	MulticastGroup string   `json:"multicastGroup,omitempty"`
	// Response policy.
	RequiredCredential string   `json:"requiredCredential,omitempty"`
	AllowedRealms      []string `json:"allowedRealms,omitempty"`
	// Self-healing: supervised links/registrations, keepalives and
	// registration refresh (advertisements are valid three periods).
	Supervise           bool `json:"supervise,omitempty"`           // redial dead links and registrations
	HeartbeatMs         int  `json:"heartbeatMs,omitempty"`         // link keepalive interval (0 = off)
	AdvertiseIntervalMs int  `json:"advertiseIntervalMs,omitempty"` // registration refresh period (0 = off)
	// Telemetry.
	TelemetryAddr string `json:"telemetryAddr,omitempty"` // /metrics + pprof listen addr
	LogLevel      string `json:"logLevel,omitempty"`      // debug, info, warn, error
	// Message-path sampling: trace roughly 1 in SampleEvery publishes
	// originating at this broker (0 = off), capped per topic hash at
	// SampleTopicPerSec traced messages per second (0 = uncapped).
	SampleEvery       int `json:"sampleEvery,omitempty"`
	SampleTopicPerSec int `json:"sampleTopicPerSec,omitempty"`
}

// Validate checks required fields and fills defaults.
func (b *Broker) Validate() error {
	if b.LogicalAddress == "" {
		return fmt.Errorf("config: broker: logicalAddress is required")
	}
	if b.DedupCapacity < 0 {
		return fmt.Errorf("config: broker: dedupCapacity must be >= 0")
	}
	if b.DedupCapacity == 0 {
		b.DedupCapacity = dedup.DefaultCapacity
	}
	if b.SampleEvery < 0 || b.SampleTopicPerSec < 0 {
		return fmt.Errorf("config: broker: sampleEvery and sampleTopicPerSec must be >= 0")
	}
	if _, err := obs.ParseLevel(b.LogLevel); err != nil {
		return fmt.Errorf("config: broker: %w", err)
	}
	return nil
}

// HeartbeatInterval returns the configured link keepalive interval.
func (b *Broker) HeartbeatInterval() time.Duration {
	return time.Duration(b.HeartbeatMs) * time.Millisecond
}

// AdvertiseInterval returns the configured registration refresh period.
func (b *Broker) AdvertiseInterval() time.Duration {
	return time.Duration(b.AdvertiseIntervalMs) * time.Millisecond
}

// Policy assembles the broker's response policy.
func (b *Broker) Policy() core.ResponsePolicy {
	p := core.ResponsePolicy{AllowedRealms: b.AllowedRealms}
	if b.RequiredCredential != "" {
		p.RequiredCredential = []byte(b.RequiredCredential)
	}
	return p
}

// BDN is a broker-discovery-node configuration file.
type BDN struct {
	Name               string `json:"name"`
	StreamPort         int    `json:"streamPort,omitempty"`
	UDPPort            int    `json:"udpPort,omitempty"`
	Policy             string `json:"policy,omitempty"` // "all" or "closest-farthest"
	InjectOverheadMs   int    `json:"injectOverheadMs,omitempty"`
	Private            bool   `json:"private,omitempty"`
	RequiredCredential string `json:"requiredCredential,omitempty"`
	// SweepIntervalMs is how often expired registrations are pruned.
	SweepIntervalMs int `json:"sweepIntervalMs,omitempty"`
	// Durability: DataDir enables the write-ahead-logged registry; every
	// registration survives a crash and recovers with its remaining TTL.
	DataDir string `json:"dataDir,omitempty"`
	// Fsync is the WAL durability policy: always (default), interval, never.
	Fsync string `json:"fsync,omitempty"`
	// Peers lists the stream addresses of the other BDNs of this set; the
	// BDN pulls their live tables.
	Peers []string `json:"peers,omitempty"`
	// Telemetry.
	TelemetryAddr string `json:"telemetryAddr,omitempty"` // /metrics + pprof listen addr
	LogLevel      string `json:"logLevel,omitempty"`      // debug, info, warn, error
}

// Validate checks required fields.
func (d *BDN) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("config: bdn: name is required")
	}
	switch d.Policy {
	case "", "all", "closest-farthest":
	default:
		return fmt.Errorf("config: bdn: unknown policy %q", d.Policy)
	}
	if d.Private && d.RequiredCredential == "" {
		return fmt.Errorf("config: bdn: private BDN requires a credential")
	}
	if _, err := wal.ParseSyncPolicy(d.Fsync); err != nil {
		return fmt.Errorf("config: bdn: %w", err)
	}
	if _, err := obs.ParseLevel(d.LogLevel); err != nil {
		return fmt.Errorf("config: bdn: %w", err)
	}
	return nil
}

// SyncPolicy returns the parsed WAL durability policy.
func (d *BDN) SyncPolicy() wal.SyncPolicy {
	p, _ := wal.ParseSyncPolicy(d.Fsync)
	return p
}

// InjectOverhead returns the configured per-injection cost.
func (d *BDN) InjectOverhead() time.Duration {
	return time.Duration(d.InjectOverheadMs) * time.Millisecond
}

// SweepInterval returns the expired-registration sweep period.
func (d *BDN) SweepInterval() time.Duration {
	return time.Duration(d.SweepIntervalMs) * time.Millisecond
}

// Node is a requesting node's configuration file.
type Node struct {
	Name            string   `json:"name"`
	Realm           string   `json:"realm,omitempty"`
	BDNs            []string `json:"bdns"` // gridservicelocator.org (.com, .net, .info) + private BDNs
	MulticastGroup  string   `json:"multicastGroup,omitempty"`
	CollectWindowMs int      `json:"collectWindowMs,omitempty"`
	MaxResponses    int      `json:"maxResponses,omitempty"`
	TargetSetSize   int      `json:"targetSetSize,omitempty"`
	PingCount       int      `json:"pingCount,omitempty"`
	Credential      string   `json:"credential,omitempty"`
	// Weighting factors (paper §9 pseudocode); zero means defaults.
	WeightFreeToTotalMemory float64 `json:"weightFreeToTotalMemory,omitempty"`
	WeightTotalMemory       float64 `json:"weightTotalMemory,omitempty"`
	WeightNumLinks          float64 `json:"weightNumLinks,omitempty"`
	WeightCPULoad           float64 `json:"weightCPULoad,omitempty"`
}

// Validate checks required fields.
func (n *Node) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("config: node: name is required")
	}
	if len(n.BDNs) == 0 && n.MulticastGroup == "" {
		return fmt.Errorf("config: node: need at least one BDN or a multicast group")
	}
	return nil
}

// DiscoveryConfig assembles a core.Config from the file.
func (n *Node) DiscoveryConfig() core.Config {
	cfg := core.Config{
		NodeName:       n.Name,
		Realm:          n.Realm,
		BDNAddrs:       n.BDNs,
		MulticastGroup: n.MulticastGroup,
		CollectWindow:  time.Duration(n.CollectWindowMs) * time.Millisecond,
		MaxResponses:   n.MaxResponses,
		PingCount:      n.PingCount,
	}
	cfg.Selection.TargetSetSize = n.TargetSetSize
	w := metrics.Weights{
		FreeToTotalMemory: n.WeightFreeToTotalMemory,
		TotalMemory:       n.WeightTotalMemory,
		NumLinks:          n.WeightNumLinks,
		CPULoad:           n.WeightCPULoad,
	}
	if w != (metrics.Weights{}) {
		cfg.Selection.Weights = w
	}
	if n.Credential != "" {
		cfg.Credentials = []byte(n.Credential)
	}
	return cfg
}

// Load reads and validates a JSON configuration file into cfg, which must be
// one of *Broker, *BDN or *Node.
func Load(path string, cfg interface{ Validate() error }) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := json.Unmarshal(data, cfg); err != nil {
		return fmt.Errorf("config: parsing %s: %w", path, err)
	}
	return cfg.Validate()
}
