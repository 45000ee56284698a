//go:build linux

package reason

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU reads the CPU time of the calling OS thread, which the caller
// has locked its goroutine to. A loaded machine delays the thread without
// adding to this clock, so the growth checks read it instead of the wall.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
