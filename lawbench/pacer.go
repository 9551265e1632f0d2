package main

import (
	"runtime"
	"syscall"
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pace is the open-loop generator. Arrival i is due at start+i*interval
// regardless of how earlier requests fare; pace stamps its due time and
// the moment it was actually handed to the connections, then queues
// request lo+i on jobs. It closes jobs after the last arrival.
//
// A time.Sleep-paced generator is late by about half a millisecond at
// these rates: when every P is idle the runtime's netpoller rounds a
// sub-millisecond timer up to 1 ms. pace instead sleeps with
// nanosleep(2) on a thread of its own whose timer slack is 1 ns, so
// its lateness is the kernel's wake-up latency. The lateness is
// reported (client.send_lag_*) and bounded (see lagBound).
func pace(clk clock, b *book, lo, hi int, start, interval int64, jobs chan<- int) {
	runtime.LockOSThread()
	// The thread is never unlocked: it exits with this goroutine and
	// takes its changed timer slack with it.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	for i := range hi - lo {
		due := start + int64(i)*interval
		for {
			d := due - clk.now()
			if d <= 0 {
				break
			}
			ts := syscall.NsecToTimespec(d)
			// EINTR (the runtime's preemption signal) just loops.
			_ = syscall.Nanosleep(&ts, nil)
		}
		r := b.rec(lo + i)
		r.intended = due
		r.sent = clk.now()
		jobs <- lo + i
	}
	close(jobs)
}
