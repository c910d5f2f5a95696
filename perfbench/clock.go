package main

// This file is the benchmark's designated time-source file: the only place
// in the package allowed to read the process clock. Every span, due time
// and latency is a nanosecond offset from one process-wide epoch, so
// timings taken on different goroutines subtract directly. The timesource
// analyzer (cmd/watchmanlint) enforces that no other file reads the clock.
//
//watchman:timesource

import (
	"runtime"
	"syscall"
	"time"
)

// epoch anchors every nanos reading.
var epoch = time.Now()

// nanos returns monotonic nanoseconds since the process epoch.
func nanos() int64 { return int64(time.Since(epoch)) }

// sleepUntil blocks until the epoch offset t (no-op when t has passed).
func sleepUntil(t int64) {
	if d := t - nanos(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// lockPreciseTimer pins the calling goroutine to its OS thread and drops
// the thread's timer slack to 1 ns, so preciseSleepUntil wakes within
// microseconds. The runtime's timers wake on a millisecond grid here,
// which would put up to a millisecond of generator lateness into every
// open-loop latency. Call unlock when done.
func lockPreciseTimer() (unlock func()) {
	runtime.LockOSThread()
	// Best effort: a kernel that refuses only costs precision, which the
	// lateness report shows.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return runtime.UnlockOSThread
}

// preciseSleepUntil blocks the calling thread in nanosleep until the
// epoch offset t. Callers hold lockPreciseTimer.
func preciseSleepUntil(t int64) {
	for {
		d := t - nanos()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop re-checks the clock
	}
}

// wallStamp is the wall-clock time of day, for the host block only.
func wallStamp() string { return time.Now().UTC().Format(time.RFC3339) }
