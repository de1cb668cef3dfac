//go:build race

package transport

// raceEnabled is true when the race detector is compiled in. Under it
// sync.Pool drops a quarter of what is Put, so a bound on the bytes a pooled
// path allocates cannot hold there.
const raceEnabled = true
