package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. On the two-vCPU reference box the kernel otherwise keeps
// moving the load generator and the server onto the same CPU (they wake each
// other over loopback), which costs a quarter of the remote throughput and
// doubles its run-to-run spread. So a remote run gives the generator the
// first allowed CPU and the server the rest; every other child gets them all.

// cpuMask is the kernel's cpu_set_t, 1024 CPUs wide.
type cpuMask [16]uint64

func maskOf(cpus []int) (m cpuMask) {
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// allowedCPUs is the set this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// setAffinity pins one thread (0: the calling one).
func setAffinity(tid int, cpus []int) error {
	m := maskOf(cpus)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %v): %w", tid, cpus, errno)
	}
	return nil
}

// pinProcess pins every thread of this process; threads the runtime starts
// later inherit the mask from the pinned thread that creates them.
func pinProcess(cpus []int) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, cpus); err != nil && !errors.Is(err, syscall.ESRCH) { // a thread may exit meanwhile
			return err
		}
	}
	return nil
}

// startPinned starts cmd on cpus: the forking thread takes the mask for the
// moment of the fork, the child inherits it, and so do all its threads.
func startPinned(cmd *exec.Cmd, cpus, restore []int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, cpus); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := setAffinity(0, restore); err == nil {
		err = rerr
	}
	return err
}
