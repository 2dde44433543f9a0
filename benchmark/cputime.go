package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// Linux's CPU-time clocks (clock_gettime(2)). Both count only the time the
// kernel ran the process's code: not the time its threads waited for a CPU
// while other processes ran, nor, on a virtual machine, the time the host
// gave the machine's CPUs to other guests (steal time).
const (
	// processClock is the CPU time of every thread of the process.
	processClock = 2 // CLOCK_PROCESS_CPUTIME_ID
	// threadClock is the CPU time of the calling thread.
	threadClock = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime reads one of the CPU-time clocks.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", clock, errno)) // both clocks exist on every Linux
	}
	return time.Duration(ts.Nano())
}
