// Command discover performs a broker discovery as a requesting node over
// real TCP/UDP sockets and prints the result: every response received, the
// shortlisted target set with scores, the ping measurements, the selected
// broker and the per-phase timing breakdown.
//
// Usage:
//
//	discover -bdn host:7000
//	discover -config node.json -verbose
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"narada/internal/config"
	"narada/internal/core"
	"narada/internal/ntptime"
	"narada/internal/obs"
	"narada/internal/obs/plane"
	"narada/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("discover: %v", err)
	}
}

// run is main's body: every exit path after the telemetry plane starts —
// above all a failed discovery, the run an operator most wants to trace —
// goes through the deferred node_stop and plane Close, so a collector
// scraping the requester (-telemetry-addr, kept up with -linger) still gets
// its spans, outcome counters and node_stop.
func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		configPath = fs.String("config", "", "node configuration file (JSON)")
		bind       = fs.String("bind", "", "IP to bind ('' = all interfaces)")
		bdns       = fs.String("bdn", "", "comma-separated BDN addresses")
		name       = fs.String("name", "", "requesting node name")
		realm      = fs.String("realm", "", "requester network realm")
		window     = fs.Duration("window", 4*time.Second, "response collection window")
		maxResp    = fs.Int("max-responses", 0, "first-N-responses cutoff (0 = window only)")
		targetSize = fs.Int("target-set", 10, "target set size |T|")
		pings      = fs.Int("pings", 3, "pings per target broker")
		multicast  = fs.Bool("multicast", false, "fall back to multicast when no BDN answers")
		verbose    = fs.Bool("verbose", false, "print every response and ping measurement")
		cacheFile  = fs.String("cache-file", "", "persist the discovered target set to this JSON file and seed the next run's cached-set fallback from it")
		linger     = fs.Duration("linger", 0, "keep the process (and telemetry endpoints) up this long after the discovery")
		tf         = plane.RegisterFlags(fs, plane.FlagsAll&^plane.FlagLogLevel, false)
	)
	_ = fs.Parse(args) // ExitOnError: Parse does not return on failure

	var cfg core.Config
	if *configPath != "" {
		nodeCfg := &config.Node{}
		if err := config.Load(*configPath, nodeCfg); err != nil {
			return err
		}
		cfg = nodeCfg.DiscoveryConfig()
	}
	if *bdns != "" {
		cfg.BDNAddrs = nil
		for _, a := range strings.Split(*bdns, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.BDNAddrs = append(cfg.BDNAddrs, a)
			}
		}
	}
	if *name != "" {
		cfg.NodeName = *name
	}
	if cfg.NodeName == "" {
		host, _ := os.Hostname()
		cfg.NodeName = "discover@" + host
	}
	if *realm != "" {
		cfg.Realm = *realm
	}
	if cfg.CollectWindow == 0 {
		cfg.CollectWindow = *window
	}
	if cfg.MaxResponses == 0 {
		cfg.MaxResponses = *maxResp
	}
	if cfg.Selection.TargetSetSize == 0 {
		cfg.Selection.TargetSetSize = *targetSize
	}
	if cfg.PingCount == 0 {
		cfg.PingCount = *pings
	}
	if *multicast && cfg.MulticastGroup == "" {
		cfg.MulticastGroup = "narada/discovery"
	}
	if len(cfg.BDNAddrs) == 0 && cfg.MulticastGroup == "" {
		return errors.New("need -bdn, -multicast or a config file")
	}

	node := transport.NewRealNode(*bind, nil)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately() // host clock assumed NTP-disciplined

	p, err := plane.Start(plane.Config{Flags: *tf, Prog: "discover", Node: cfg.NodeName, Offset: ntp.Offset})
	if err != nil {
		return err
	}
	defer p.Close()
	cfg.Handle = p.Handle()
	// The requester is short-lived: its node_start/node_stop pair bounds the
	// discovery on the collector's timeline, and once scraped the plane's
	// Close waits for the scrape that carries node_stop.
	cfg.Journal.Emit(obs.EventNodeStart, cfg.NodeName, "discovery requester")
	defer cfg.Journal.Emit(obs.EventNodeStop, cfg.NodeName, "")
	if err := p.Serve(); err != nil {
		return err
	}
	if *linger > 0 {
		// On every exit path, a failed discovery included: a collector
		// watching -telemetry-addr scrapes a requester only while it is up.
		defer func() {
			log.Printf("discover: lingering %v (trace at /debug/traces)", *linger)
			time.Sleep(*linger)
		}()
	}

	d := core.NewDiscoverer(node, ntp, cfg)
	defer d.Close()
	if *cacheFile != "" {
		if brokers, err := loadBrokerCache(*cacheFile); err != nil {
			log.Printf("discover: ignoring broker cache: %v", err)
		} else if len(brokers) > 0 {
			d.SeedTargetSet(brokers)
			log.Printf("discover: seeded %d cached brokers from %s", len(brokers), *cacheFile)
		}
	}
	res, err := d.Discover()
	if err != nil {
		return err
	}
	if *cacheFile != "" {
		if err := saveBrokerCache(*cacheFile, d.LastTargetSet()); err != nil {
			log.Printf("discover: saving broker cache: %v", err)
		}
	}

	fmt.Printf("discovered via %s", res.Via)
	if res.BDN != "" {
		fmt.Printf(" (%s)", res.BDN)
	}
	fmt.Printf(", %d responses, %d in target set\n", len(res.Responses), len(res.TargetSet))

	if *verbose {
		fmt.Println("\nresponses:")
		for _, c := range res.Responses {
			fmt.Printf("  %-24s est-latency=%-12v links=%-3d cpu=%.2f\n",
				c.Response.Broker.LogicalAddress, c.EstLatency,
				c.Response.Usage.Links, c.Response.Usage.CPULoad)
		}
		fmt.Println("\ntarget set (by score):")
		for _, c := range res.TargetSet {
			fmt.Printf("  %-24s score=%-10.3f ping-rtt=%-12v pongs=%d\n",
				c.Response.Broker.LogicalAddress, c.Score, c.PingRTT, c.PingCount)
		}
	}

	fmt.Printf("\nselected broker: %s\n", res.Selected.LogicalAddress)
	for _, ep := range res.Selected.Endpoints {
		fmt.Printf("  %-4s %s\n", ep.Protocol, ep.Address)
	}
	if res.PingDecided {
		fmt.Printf("  measured RTT %v\n", res.SelectedRTT)
	} else {
		fmt.Println("  (no pongs received; selected by weight)")
	}
	fmt.Printf("\ntiming:\n%s\n", res.Timing.String())
	return nil
}
