package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a q share of the samples at or below it. It refuses to
// report a percentile with fewer than minBeyond samples strictly above its
// rank, because a tail estimate resting on a handful of samples says more
// about the sample than about the system.
func percentile(xs []float64, q float64, minBeyond int) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1]", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle sample (the mean of the two middle samples for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianDur is median over durations, in seconds.
func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// usage is a point-in-time read of the process's resource counters.
type usage struct {
	wall time.Time
	cpu  time.Duration // user + system
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		wall: time.Now(),
		cpu:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// since returns wall and CPU time elapsed after u.
func (u usage) since() (wall, cpu time.Duration) {
	now := readUsage()
	return now.wall.Sub(u.wall), now.cpu - u.cpu
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
