//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package reliable

import (
	"testing"
	"testing/synctest"
	"time"
)

// TestCloseReturnsAtOnce: a publisher's and a subscriber's Close return at the
// instant they are called while their client stays open. Each receive loop
// waits on the next event and on Close together, so no poll is left to wait
// out. It runs on the exact lane, where any wait would move the clock.
func TestCloseReturnsAtOnce(t *testing.T) {
	synctest.Run(func() {
		t.Run("bubble", func(t *testing.T) {
			s := startSession(t, 5)
			if err := s.sub.Subscribe("data/**"); err != nil {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Millisecond)
			synctest.Wait() // both receive loops wait on their open clients
			start := time.Now()
			s.pub.Close()
			s.sub.Close()
			if d := time.Since(start); d != 0 {
				t.Fatalf("Close took %v of model time with the clients open", d)
			}
		})
	})
}
