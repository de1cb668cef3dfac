// Command broker runs a NaradaBrokering-style publish/subscribe broker over
// real TCP/UDP sockets. It advertises itself to the BDNs listed in its
// configuration file, links to configured peer brokers, and answers broker
// discovery requests according to its response policy.
//
// Usage:
//
//	broker -config broker.json [-bind 127.0.0.1]
//	broker -logical my-broker -stream-port 10001 -udp-port 10002 \
//	       -bdn host:7000 -link host:10001
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"narada/internal/broker"
	"narada/internal/config"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/obs/plane"
	"narada/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("broker: %v", err)
	}
	log.Print("broker: shutdown complete")
}

// run is main's body, so that every exit path runs the deferred plane Close
// and a collector scraping the node gets its last snapshot on failures too.
func run() error {
	var (
		configPath = flag.String("config", "", "broker configuration file (JSON)")
		bind       = flag.String("bind", "", "IP to bind ('' = all interfaces)")
		logical    = flag.String("logical", "", "logical address (overrides config)")
		streamPort = flag.Int("stream-port", 0, "TCP port (0 = auto)")
		udpPort    = flag.Int("udp-port", 0, "UDP port (0 = auto)")
		realm      = flag.String("realm", "", "network realm")
		bdns       = flag.String("bdn", "", "comma-separated BDN addresses to register with")
		links      = flag.String("link", "", "comma-separated peer broker addresses to link to")
		multicast  = flag.Bool("multicast", false, "join the discovery multicast group")
		superviseF = flag.Bool("supervise", false, "self-heal links and BDN registrations with backoff redial")
		heartbeat  = flag.Duration("heartbeat", 0, "link keepalive interval (overrides config; 0 = off)")
		advEvery   = flag.Duration("advertise-every", 0, "registration refresh period (overrides config; 0 = off)")
		sampleN    = flag.Int("sample-every", 0, "trace ~1 in N publishes originating here (overrides config; 0 = off)")
		samplePS   = flag.Int("sample-topic-persec", 0, "per-topic cap on traced messages/second (overrides config; 0 = uncapped)")
		tf         = plane.RegisterFlags(flag.CommandLine, plane.FlagsAll, true)
	)
	flag.Parse()

	cfg := &config.Broker{}
	if *configPath != "" {
		if err := config.Load(*configPath, cfg); err != nil {
			return err
		}
	}
	if *logical != "" {
		cfg.LogicalAddress = *logical
	}
	if cfg.LogicalAddress == "" {
		cfg.LogicalAddress = fmt.Sprintf("broker-%d", os.Getpid())
	}
	if *streamPort != 0 {
		cfg.StreamPort = *streamPort
	}
	if *udpPort != 0 {
		cfg.UDPPort = *udpPort
	}
	if *realm != "" {
		cfg.Realm = *realm
	}
	if *bdns != "" {
		cfg.BDNs = splitList(*bdns)
	}
	if *links != "" {
		cfg.Links = splitList(*links)
	}
	if *multicast && cfg.MulticastGroup == "" {
		cfg.MulticastGroup = "narada/discovery"
	}
	if *superviseF {
		cfg.Supervise = true
	}
	if *heartbeat > 0 {
		cfg.HeartbeatMs = int(heartbeat.Milliseconds())
	}
	if *advEvery > 0 {
		cfg.AdvertiseIntervalMs = int(advEvery.Milliseconds())
	}
	if *sampleN > 0 {
		cfg.SampleEvery = *sampleN
	}
	if *samplePS > 0 {
		cfg.SampleTopicPerSec = *samplePS
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	tf.Default(cfg.TelemetryAddr, cfg.LogLevel)

	node := transport.NewRealNode(*bind, nil)
	hostname, _ := os.Hostname()
	if cfg.Hostname == "" {
		cfg.Hostname = hostname
	}
	// Real deployment: the system clock is assumed NTP-disciplined by the
	// host; the service models the residual synchronisation error.
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately() // host clock assumed NTP-disciplined

	p, err := plane.Start(plane.Config{Flags: *tf, Prog: "broker", Node: cfg.LogicalAddress, Offset: ntp.Offset})
	if err != nil {
		return err
	}
	defer p.Close()

	b, err := broker.New(node, ntp, broker.Config{
		Handle:            p.Handle(),
		LogicalAddress:    cfg.LogicalAddress,
		Hostname:          cfg.Hostname,
		Realm:             cfg.Realm,
		Geo:               cfg.Geo,
		Institution:       cfg.Institution,
		StreamPort:        cfg.StreamPort,
		UDPPort:           cfg.UDPPort,
		DedupCapacity:     cfg.DedupCapacity,
		Policy:            cfg.Policy(),
		MulticastGroup:    cfg.MulticastGroup,
		Supervise:         cfg.Supervise,
		HeartbeatInterval: cfg.HeartbeatInterval(),
		AdvertiseInterval: cfg.AdvertiseInterval(),
		PublishSampler:    obs.NewSampler(uint64(cfg.SampleEvery), uint64(cfg.SampleTopicPerSec)),
	})
	if err != nil {
		return err
	}
	// Deferred after the plane's Close, so the broker stops first.
	defer b.Close()
	p.SetFlows(b.Flows)
	if err := b.Start(); err != nil {
		return err
	}
	if cfg.SampleEvery > 0 {
		log.Printf("broker: sampling ~1/%d publishes for message tracing", cfg.SampleEvery)
	}
	log.Printf("broker %s listening: stream=%s udp=%s",
		b.LogicalAddress(), b.StreamAddr(), b.UDPAddr())
	if err := p.Serve(); err != nil {
		return err
	}

	for _, addr := range cfg.BDNs {
		if err := b.RegisterWithBDN(addr); err != nil {
			log.Printf("broker: registering with BDN %s: %v", addr, err)
		} else {
			log.Printf("broker: registered with BDN %s", addr)
		}
	}
	for _, addr := range cfg.Links {
		if err := b.LinkTo(addr); err != nil {
			log.Printf("broker: linking to %s: %v", addr, err)
		} else {
			log.Printf("broker: linked to %s", addr)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("broker: %s: shutting down", s)
	return nil
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
