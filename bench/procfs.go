package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHz is the unit of the CPU times in /proc/<pid>/stat. Linux fixes
// USER_HZ at 100 on every architecture Go supports.
const userHz = 100

// parseStatCPU extracts utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) is parenthesised and may itself hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("procfs: no command field in stat %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: short stat line %q", stat)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("procfs: bad cpu fields in stat %q", stat)
	}
	return time.Duration(ut+st) * time.Second / userHz, nil
}

// parseStatusKB extracts one "Key:   123 kB" field from the text of
// /proc/<pid>/status, in kilobytes.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: unexpected %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("procfs: no %s in status", key)
}

// parseCPUModel returns the first "model name" of /proc/cpuinfo text.
func parseCPUModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procCPU reads the CPU time a live process has consumed so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// procPeakRSSMB reads a live process's resident-set high-water mark.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(b), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
