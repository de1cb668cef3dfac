//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package main

import (
	"io"
	"testing/synctest"

	"narada/internal/experiments"
)

// Built with GOEXPERIMENT=synctest, nbexp runs on the exact lane: each
// model-time experiment runs in a synctest bubble at Scale 1, whatever -scale
// says, so model time is the bubble's clock and the output is a function of
// the seed alone — the same at any GOMAXPROCS and under -race. fig13 and fig14
// time the host's CPU, so they run outside the bubble.
func init() { runExperiment = exactRun }

func exactRun(id string, opts experiments.Options, w io.Writer) error {
	if id == "fig13" || id == "fig14" {
		return experiments.Run(id, opts, w)
	}
	opts.Scale = 1
	errc := make(chan error, 1)
	synctest.Run(func() { errc <- experiments.Run(id, opts, w) })
	return <-errc
}
