//go:build unix

package metrics

import (
	"syscall"
	"time"
)

// processCPUTime returns the user and system CPU time this process has
// consumed so far.
func processCPUTime() (time.Duration, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), true
}
