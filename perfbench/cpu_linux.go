package main

import (
	"syscall"
	"unsafe"
)

// Clock IDs of clock_gettime(2): CPU time consumed by the whole process
// (every thread, the Go runtime's GC workers included) and by the calling
// thread alone.
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

func clockNanos(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return ts.Nano()
}

// processCPU returns the process's consumed CPU time in nanoseconds. The
// offline stages are timed with it: unlike wall time it does not count
// the time a virtual CPU is stolen by the hypervisor.
func processCPU() int64 { return clockNanos(clockProcessCPU) }

// threadCPU returns the calling OS thread's consumed CPU time in
// nanoseconds. Callers pin their goroutine with runtime.LockOSThread.
func threadCPU() int64 { return clockNanos(clockThreadCPU) }
