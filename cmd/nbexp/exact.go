//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package main

import (
	"io"
	"testing/synctest"

	"narada/internal/experiments"
)

// Built with GOEXPERIMENT=synctest, nbexp runs on the exact lane: each
// experiment runs in a synctest bubble, so model time is the bubble's clock
// and the output is a function of the seed alone — the same at any GOMAXPROCS
// and under -race.
func init() { runExperiment = exactRun }

func exactRun(id string, opts experiments.Options, w io.Writer) error {
	errc := make(chan error, 1)
	synctest.Run(func() { errc <- experiments.Run(id, opts, w) })
	return <-errc
}
