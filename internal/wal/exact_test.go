//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package wal

import (
	"testing"
	"testing/synctest"
	"time"
)

// exact runs f in a synctest bubble, on the exact lane, as a subtest, so the
// cleanups it registers run inside the bubble.
func exact(t *testing.T, f func(t *testing.T)) {
	synctest.Run(func() { t.Run("bubble", f) })
}

// state reads, under the log's lock, whether it is dirty and how often its
// interval timer has fired.
func state(l *Log) (dirty bool, wakes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirty, l.syncWakes
}

// TestSyncIntervalFlushes: under SyncInterval an append is fsynced exactly
// syncEvery after it, by one timer firing, and not a moment before.
func TestSyncIntervalFlushes(t *testing.T) {
	exact(t, func(t *testing.T) {
		l := openT(t, t.TempDir(), Options{Sync: SyncInterval})
		if _, err := l.Append([]byte("interval")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(syncEvery - time.Nanosecond)
		synctest.Wait()
		if dirty, wakes := state(l); !dirty || wakes != 0 {
			t.Fatalf("before syncEvery: dirty %v after %d wakes, want dirty after 0", dirty, wakes)
		}
		time.Sleep(time.Nanosecond)
		synctest.Wait()
		if dirty, wakes := state(l); dirty || wakes != 1 {
			t.Fatalf("at syncEvery: dirty %v after %d wakes, want synced after 1", dirty, wakes)
		}
	})
}

// TestSyncIntervalIdleLogSleeps: a log with nothing to sync sets no timer —
// not before its first append, and not after its last was synced — so an
// idle durable BDN does not wake every syncEvery.
func TestSyncIntervalIdleLogSleeps(t *testing.T) {
	exact(t, func(t *testing.T) {
		l := openT(t, t.TempDir(), Options{Sync: SyncInterval})
		time.Sleep(10 * syncEvery)
		synctest.Wait()
		if _, wakes := state(l); wakes != 0 {
			t.Fatalf("a log never appended to woke %d times in 10 periods", wakes)
		}
		for i := 0; i < 3; i++ { // one burst: one timer
			if _, err := l.Append([]byte("burst")); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(syncEvery)
		synctest.Wait()
		time.Sleep(10 * syncEvery)
		synctest.Wait()
		if dirty, wakes := state(l); dirty || wakes != 1 {
			t.Fatalf("after a burst and 10 idle periods: dirty %v after %d wakes, want synced after 1", dirty, wakes)
		}
	})
}
