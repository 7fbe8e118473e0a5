package main

import (
	"syscall"
	"time"
)

// The benchmark's only wall-clock reads. The simulator itself is
// seeded and cycle-timed; host time enters here and nowhere else.

// now reads the monotonic wall clock.
func now() time.Time {
	//lint:ignore determinism the benchmark measures host time by design
	return time.Now()
}

// since is the host time elapsed from t.
func since(t time.Time) time.Duration { return now().Sub(t) }

// cpuTime is the CPU time (user + system, all threads) this process
// has used so far. A virtual machine's stolen time is not in it, so
// rates per CPU second hold steady while the host takes CPUs away.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF is always a valid target; getrusage cannot fail here.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
