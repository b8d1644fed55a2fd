package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile, so that one outlier cannot move it.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and
// the number of samples strictly beyond its rank. xs need not be sorted.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1], len(s) - k
}

// tailPercentile is percentile that also reports whether at least
// minTail samples lie beyond the rank.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	v, beyond := percentile(xs, p)
	return v, beyond >= minTail
}

// median returns the median of xs (mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
