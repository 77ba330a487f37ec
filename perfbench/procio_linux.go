package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// peakRSSMiB is the process's peak resident set, from getrusage.
func peakRSSMiB() (float64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	return float64(ru.Maxrss) / 1024, true // Linux counts kilobytes
}

// kernel names the running kernel release.
func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "linux"
	}
	return "linux " + strings.TrimSpace(string(b))
}

// wcharBytes returns the bytes this process has passed to write
// calls, from /proc/self/io.
func wcharBytes() (int64, bool) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// cpuTicks returns the machine's total and stolen CPU time from
// /proc/stat, in clock ticks. Steal is time the hypervisor ran
// something else while this machine's processors wanted to run.
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}
