//go:build !unix

package metrics

import "time"

// processCPUTime has no portable source here; RuntimeSampler then reports
// the CPU load it is given through SetCPULoad, zero otherwise.
func processCPUTime() (time.Duration, bool) { return 0, false }
