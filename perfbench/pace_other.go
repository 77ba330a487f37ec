//go:build !linux

package main

import "time"

func finePacing() {}

// sleepUntil sleeps until t with the Go timer, which may wake up to a
// millisecond late; loadgen.late_p99_ms shows how late.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
