// Command bench is the repository's one benchmark. It builds cmd/broker and
// cmd/bdn from the checkout it is started in, boots them as child processes
// on real loopback TCP/UDP, drives seeded load at them from this single
// process, checks every output, and prints every metric by name with its
// unit. The last line of standard output is the result as one JSON object.
//
//	bash bench/run.sh --workload fanout_small --seed 7 --seconds 20 --trace 0
//
// Without --workload every workload runs in turn, one result line each. See
// bench/README.md for the definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run ('' = all): fanout_small | bulk_large | chain_churn | discover_loopback")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "seconds of measured rounds per workload")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file instead of end-to-end metrics")
	aa := flag.Int("aa", 0, "N > 0 = the A/A check: two sets of N measured runs of every workload, compared against the bounds in BENCHMARK.json")
	flag.Parse()

	// The generator is one process on at most two cores, whatever the host.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	// Children are stopped on every exit path: normal return, a failed run,
	// a panic and a signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAllFleets()
		os.Exit(130)
	}()
	code := 1
	defer func() {
		p := recover()
		stopAllFleets()
		if p != nil {
			panic(p)
		}
		os.Exit(code)
	}()

	if err := run(*name, *seed, *seconds, *trace == 1, *aa); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	code = 0
}

func run(name string, seed int64, seconds float64, traced bool, aa int) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q", flag.Arg(0))
	}
	todo := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("bench: unknown workload %q", name)
		}
		todo = []workload{*w}
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	bins, err := buildChildren(root)
	if err != nil {
		return err
	}
	fmt.Printf("bench.build_s %.3f s (go build of cmd/broker and cmd/bdn, not part of setup_s)\n", bins.BuildTime.Seconds())
	if aa > 0 {
		return runAA(root, bins, seed, seconds, aa)
	}
	for i := range todo {
		o := runOpts{root: root, bins: bins, w: &todo[i], seed: seed, seconds: seconds, dur: [2]time.Duration{closedDur, openDur}}
		var rep *report
		if traced {
			rep, err = runTraced(o)
		} else {
			rep, err = runWorkload(o)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", todo[i].Name, err)
		}
		printReport(rep, seed)
	}
	return nil
}

// printReport writes the human-readable block and then the result line.
func printReport(rep *report, seed int64) {
	fmt.Printf("== %s seed=%d\n", rep.Workload, seed)
	for _, l := range rep.Notes {
		fmt.Println(l)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %v %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	ratio := 0.0
	if rep.Attempted > 0 {
		ratio = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("ops_attempted %d\nops_failed %d\nfailed_ratio %g ratio\n", rep.Attempted, rep.Failed, ratio)
	for _, p := range rep.Problems {
		fmt.Println("CHECK FAILED:", p)
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", rep.Workload, p)
	}
	attempted := rep.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct(), attempted, rep.Failed, rep.Metrics})
	fmt.Println(string(line))
}
