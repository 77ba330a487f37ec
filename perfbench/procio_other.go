//go:build !linux

package main

import "runtime"

// wcharBytes reports that write counts are unavailable: metrics built
// on them are left out, not reported as zero.
func wcharBytes() (int64, bool) { return 0, false }

// peakRSSMiB reports that the peak resident set is unavailable.
func peakRSSMiB() (float64, bool) { return 0, false }

func kernel() string { return runtime.GOOS }

// cpuTicks reports that steal time is unavailable.
func cpuTicks() (total, steal uint64, ok bool) { return 0, 0, false }
