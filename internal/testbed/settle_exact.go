//go:build goexperiment.synctest

package testbed

import "testing/synctest"

// Built with GOEXPERIMENT=synctest, New must be called in a synctest bubble.
func init() { quiesce = synctest.Wait }
