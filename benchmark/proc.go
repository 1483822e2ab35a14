package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// userHz is the unit of the CPU times in /proc/<pid>/stat. Linux fixes
// it at 100 for every architecture's /proc interface.
const userHz = 100

// procCPU returns the user+system CPU seconds pid has consumed so far.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis. utime and stime are fields 14, 15.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad CPU times", pid)
	}
	return float64(utime+stime) / userHz, nil
}

// procHWM returns pid's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, rest)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
