package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask: bit n of word n/64 is CPU n.
type cpuSet [16]uint64

func oneCPU(cpu int) cpuSet {
	var s cpuSet
	s[cpu/64] = 1 << (cpu % 64)
	return s
}

// cpus lists the set's CPU numbers in ascending order.
func (s cpuSet) cpus() []int {
	var out []int
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			out = append(out, w*64+bits.TrailingZeros64(word))
		}
	}
	return out
}

// getAffinity reads the CPUs thread tid may run on; 0 is the calling thread.
func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, fmt.Errorf("sched_getaffinity(%d): %w", tid, errno)
	}
	return s, nil
}

// setAffinity confines thread tid (0: the calling thread) to the set.
// Threads and processes it creates afterwards inherit the set.
func setAffinity(tid int, s cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
	}
	return nil
}

// setProcessAffinity confines every thread of this process to the set. A
// thread created while the pass runs inherits its creator's mask, which
// may be the old one, so passes repeat until one finds nothing to change.
func setProcessAffinity(s cpuSet) error {
	for pass := 0; pass < 10; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		changed := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			// A thread may exit between the listing and the call.
			if have, err := getAffinity(tid); err != nil || have == s {
				continue
			}
			if setAffinity(tid, s) == nil {
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("threads kept appearing with another CPU affinity")
}

// cpuSplit gives the load generator and the daemons a CPU each. On the
// 2-core reference box four busy threads of three processes otherwise
// migrate and wake each other across cores, and the run measures the
// guest scheduler and the hypervisor's idle wake-ups: throughput of one
// build then swings by a third between runs. With the split, the daemons'
// Go runtimes see one CPU each and the generator never takes theirs.
type cpuSplit struct {
	generator, daemons cpuSet
}

// pinGenerator splits the CPUs this process may use, the first for the
// load generator (this process, from now on) and the last for the
// daemons startDaemon spawns, and returns the split plus a function that
// undoes it. With fewer than two CPUs everything stays where it is.
func pinGenerator() (*cpuSplit, func(), error) {
	all, err := getAffinity(0)
	if err != nil {
		return nil, nil, err
	}
	cpus := all.cpus()
	if len(cpus) < 2 {
		return nil, func() {}, nil
	}
	split := &cpuSplit{generator: oneCPU(cpus[0]), daemons: oneCPU(cpus[len(cpus)-1])}
	if err := setProcessAffinity(split.generator); err != nil {
		return nil, nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return split, func() {
		runtime.GOMAXPROCS(procs)
		// Best effort: a thread left on one CPU only slows what follows.
		_ = setProcessAffinity(all)
	}, nil
}

// startOn starts cmd on the daemons' CPU: the child inherits the mask of
// the thread that forks it, so the calling goroutine's thread takes that
// mask for the duration of the fork.
func (c *cpuSplit) startOn(start func() error) error {
	if c == nil {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, c.daemons); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, c.generator); err == nil {
		err = rerr
	}
	return err
}
