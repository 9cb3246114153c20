package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "1234 (hm md) x) S 1 1234 1234 0 -1 4194560 500 0 0 0 250 50 7 3 20 0 9 0 100 1000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want { // (250+50)/100 s
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "12 (x S 1", "12 (x) S 1 2"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseStatus(t *testing.T) {
	status := "Name:\thmmd\nVmPeak:\t  200000 kB\nVmHWM:\t   16768 kB\nVmRSS:\t   12000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil || kb != 16768 {
		t.Errorf("VmHWM = %d, %v; want 16768", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key must be an error")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("an unexpected unit must be an error")
	}
}

func TestParseCPUModel(t *testing.T) {
	info := "processor\t: 0\nmodel name\t: Example CPU @ 3.00GHz\nprocessor\t: 1\nmodel name\t: other\n"
	if got := parseCPUModel(info); got != "Example CPU @ 3.00GHz" {
		t.Errorf("model = %q", got)
	}
	if got := parseCPUModel(""); got != "unknown" {
		t.Errorf("model of empty cpuinfo = %q", got)
	}
}

func TestReadOwnProc(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("peak RSS = %v MB, %v", mb, err)
	}
}
