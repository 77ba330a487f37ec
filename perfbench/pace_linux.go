package main

import (
	"syscall"
	"time"
)

// finePacing asks the kernel to wake the calling thread within a
// microsecond of a sleep's end rather than the default 50 µs; the
// caller has locked its goroutine to the thread.
func finePacing() {
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: default slack only costs precision
}

// sleepUntil blocks the thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}
