//go:build !linux

package reason

import "time"

var wallStart = time.Now()

// threadCPU falls back to the wall clock where the thread's CPU clock is not
// read.
func threadCPU() time.Duration { return time.Since(wallStart) }
