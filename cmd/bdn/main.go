// Command bdn runs a Broker Discovery Node over real TCP/UDP sockets: it
// accepts broker advertisements, acknowledges discovery requests and injects
// them into the broker network.
//
// Usage:
//
//	bdn -config bdn.json [-bind 127.0.0.1]
//	bdn -name gridservicelocator.org -stream-port 7000
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"narada/internal/bdn"
	"narada/internal/config"
	"narada/internal/ntptime"
	"narada/internal/obs/plane"
	"narada/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("bdn: %v", err)
	}
	log.Print("bdn: shutdown complete")
}

// run is main's body, so that every exit path runs the deferred plane Close
// and a collector scraping the node gets its last snapshot on failures too.
func run() error {
	var (
		configPath = flag.String("config", "", "BDN configuration file (JSON)")
		bind       = flag.String("bind", "", "IP to bind ('' = all interfaces)")
		name       = flag.String("name", "", "BDN name (overrides config)")
		streamPort = flag.Int("stream-port", 0, "TCP port (0 = auto)")
		udpPort    = flag.Int("udp-port", 0, "UDP port (0 = auto)")
		policy     = flag.String("policy", "", "injection policy: all | closest-farthest")
		measure    = flag.Duration("measure-every", time.Minute, "broker distance measurement interval under closest-farthest injection (0 = never)")
		sweepEvery = flag.Duration("sweep-every", 0, "expired-registration sweep period (overrides config; 0 = 1s)")
		dataDir    = flag.String("data-dir", "", "durable registry directory: WAL + snapshots; registrations survive restarts (overrides config; '' = in-memory only)")
		fsync      = flag.String("fsync", "", "WAL durability policy: always | interval | never (overrides config)")
		peers      = flag.String("peers", "", "comma-separated stream addresses of the other BDNs of this set, whose tables this one pulls (overrides config)")
		tf         = plane.RegisterFlags(flag.CommandLine, plane.FlagsAll, true)
	)
	flag.Parse()

	cfg := &config.BDN{}
	if *configPath != "" {
		if err := config.Load(*configPath, cfg); err != nil {
			return err
		}
	}
	if *name != "" {
		cfg.Name = *name
	}
	if cfg.Name == "" {
		cfg.Name = "gridservicelocator.org"
	}
	if *streamPort != 0 {
		cfg.StreamPort = *streamPort
	}
	if *udpPort != 0 {
		cfg.UDPPort = *udpPort
	}
	if *policy != "" {
		cfg.Policy = *policy
	}
	if *sweepEvery > 0 {
		cfg.SweepIntervalMs = int(sweepEvery.Milliseconds())
	}
	if *dataDir != "" {
		cfg.DataDir = *dataDir
	}
	if *fsync != "" {
		cfg.Fsync = *fsync
	}
	if *peers != "" {
		cfg.Peers = nil
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cfg.Peers = append(cfg.Peers, p)
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	tf.Default(cfg.TelemetryAddr, cfg.LogLevel)

	injection := bdn.InjectClosestFarthest
	if cfg.Policy == "all" {
		injection = bdn.InjectAll
	}

	node := transport.NewRealNode(*bind, nil)
	ntp := ntptime.NewService(node.Clock(), 0, nil)
	ntp.InitImmediately() // host clock assumed NTP-disciplined

	p, err := plane.Start(plane.Config{Flags: *tf, Prog: "bdn", Node: cfg.Name, Offset: ntp.Offset})
	if err != nil {
		return err
	}
	defer p.Close()

	d, err := bdn.New(node, ntp, bdn.Config{
		Handle:             p.Handle(),
		Name:               cfg.Name,
		StreamPort:         cfg.StreamPort,
		UDPPort:            cfg.UDPPort,
		Policy:             injection,
		InjectOverhead:     cfg.InjectOverhead(),
		SweepInterval:      cfg.SweepInterval(),
		Private:            cfg.Private,
		RequiredCredential: []byte(cfg.RequiredCredential),
		DataDir:            cfg.DataDir,
		Fsync:              cfg.SyncPolicy(),
		Peers:              cfg.Peers,
	})
	if err != nil {
		return err
	}
	// Deferred after the plane's Close, so the daemon stops first.
	defer d.Close()
	if err := d.Start(); err != nil {
		return err
	}
	log.Printf("bdn %s listening on %s", d.Name(), d.Addr())
	if cfg.DataDir != "" {
		log.Printf("bdn: durable registry in %s (fsync=%s)", cfg.DataDir, cfg.SyncPolicy())
	}
	if len(cfg.Peers) > 0 {
		log.Printf("bdn: exchanging tables with %d peers", len(cfg.Peers))
	}

	if err := p.Serve(); err != nil {
		return err
	}

	stop := make(chan struct{})
	// Only closest-farthest injection reads a broker's distance.
	if *measure > 0 && injection == bdn.InjectClosestFarthest {
		go func() {
			ticker := time.NewTicker(*measure)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					dists := d.MeasureDistances()
					log.Printf("bdn: measured %d broker distances", len(dists))
				case <-stop:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	close(stop)
	log.Printf("bdn: %s: shutting down", s)
	return nil
}
