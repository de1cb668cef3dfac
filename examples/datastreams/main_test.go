//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package main

import (
	"testing"
	"testing/synctest"
)

// TestDatasetCrossesTheNetworkIntact is the reliable-streams and fragmentation
// leg of the full-system story: discovery picks the producer's broker, a
// multi-fragment compressed dataset rides reliable delivery across the broker
// network, and the consumer coalesces exactly the bytes that were sent. It
// runs on the exact lane, in a synctest bubble, so its model-time waits take
// no wall time.
func TestDatasetCrossesTheNetworkIntact(t *testing.T) {
	synctest.Run(func() {
		t.Run("bubble", func(t *testing.T) {
			if err := run(8000); err != nil {
				t.Fatal(err)
			}
		})
	})
}
