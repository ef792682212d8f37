package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice,
// interpolating linearly between the two closest ranks. An empty slice
// yields 0 so that a metric which does not apply prints as 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// iqrShare is the distance between the first and third quartile as a share
// of the median — the spread the benchmark contract judges steadiness by.
// It follows Python's statistics.quantiles(values, n=4) (exclusive method)
// so that -compare and the driver agree.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k)*float64(len(s)+1)/4 - 1
		lo := int(math.Floor(pos))
		switch {
		case lo < 0:
			return s[0]
		case lo >= len(s)-1:
			return s[len(s)-1]
		}
		frac := pos - float64(lo)
		return s[lo] + (s[lo+1]-s[lo])*frac
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b with 0 for an empty base, so metrics that do not apply to a
// workload print as 0 instead of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssPeakMB is the process's peak resident set (Linux reports KiB).
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcCPUNow is the CPU time the Go runtime has spent in garbage collection.
func gcCPUNow() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}
