// Command nbexp regenerates the paper's evaluation: every model-time table
// and figure (Table 1, Figures 2-12) plus the ablation studies, on the
// simulated five-site WAN. Only a build with GOEXPERIMENT=synctest (`make
// figures`) runs them, each in a synctest bubble; any build lists them.
//
// Usage:
//
//	nbexp -list
//	nbexp -exp fig2
//	nbexp -exp all -runs 120 -keep 100 -seed 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"narada/internal/experiments"
	"narada/internal/obs/plane"
)

// runExperiment runs one experiment in a synctest bubble and writes its
// report (exact.go): on the wall clock the host's scheduling adds model time.
var runExperiment func(id string, opts experiments.Options, w io.Writer) error

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "nbexp: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp  = flag.String("exp", "all", "experiment id (see -list) or 'all' / 'figures' / 'ablations'")
		list = flag.Bool("list", false, "list experiment ids and exit")
		runs = flag.Int("runs", 120, "discovery repetitions per experiment (paper: 120)")
		keep = flag.Int("keep", 100, "samples kept after outlier removal (paper: 100)")
		seed = flag.Int64("seed", 1, "random seed")
		tf   = plane.RegisterFlags(flag.CommandLine, plane.FlagTelemetryAddr, false)
	)
	flag.Lookup("telemetry-addr").Usage = "listen addr for /metrics, /healthz and pprof while experiments run ('' = off)"
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	if runExperiment == nil {
		return errors.New("experiments run only in a synctest bubble: build with GOEXPERIMENT=synctest, as make figures does")
	}

	p, err := plane.Start(plane.Config{Flags: *tf, Prog: "nbexp", MetricsOnly: true})
	if err != nil {
		return err
	}
	defer p.Close()
	if err := p.Serve(); err != nil {
		return err
	}

	opts := experiments.Options{Runs: *runs, Keep: *keep, Seed: *seed}
	var ids []string
	for _, e := range experiments.Registry {
		if *exp == "all" || *exp == "figures" && e.Kind == experiments.Figure ||
			*exp == "ablations" && e.Kind == experiments.Ablation {
			ids = append(ids, e.ID)
		}
	}
	if ids == nil {
		ids = strings.Split(*exp, ",")
	}

	failed := 0
	for _, id := range ids {
		if err := runExperiment(strings.TrimSpace(id), opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "nbexp: %v\n", err)
			failed++
		}
		fmt.Println()
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d experiments failed", failed, len(ids))
	}
	return nil
}
