package main

import "testing"

// TestDatasetCrossesTheNetworkIntact is the reliable-streams and fragmentation
// leg of the full-system story: discovery picks the producer's broker, a
// multi-fragment compressed dataset rides reliable delivery across the broker
// network, and the consumer coalesces exactly the bytes that were sent.
func TestDatasetCrossesTheNetworkIntact(t *testing.T) {
	if err := run(8000); err != nil {
		t.Fatal(err)
	}
}
