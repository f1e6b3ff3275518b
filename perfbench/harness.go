package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
)

// tally accounts one run's timed ops. An op is one table on the table
// workloads and one page load on popular; a pass is one table there and
// one sweep over the popular (site, strategy) grid.
type tally struct {
	attempted int
	failed    int
	passSec   []float64 // wall seconds per pass
	passRate  []float64 // page loads per wall second, per pass
	loadMs    []float64 // wall ms per individually timed load (popular only)
}

// passDone records one pass of loads page loads.
func (t *tally) passDone(sec float64, loads int64) {
	t.passSec = append(t.passSec, sec)
	t.passRate = append(t.passRate, float64(loads)/sec)
}

// op records one op. It fails when it returned an error (a panic is
// recovered into one) or when its output does not match the reference.
func (t *tally) op(err error, match bool) {
	t.attempted++
	if err != nil || !match {
		t.failed++
	}
}

// memDelta is the change in runtime.MemStats over the timed loop.
type memDelta struct {
	mallocs uint64
	bytes   uint64
}

// endToEnd turns one untraced run into the BENCHMARK.json end-to-end
// metrics. Times are medians over passes, so a stall of the host moves
// them less than a total would. Allocation figures are divided by ops,
// not by passes.
func endToEnd(t *tally, mem memDelta, setupSec []float64, maxRSSMB float64) map[string]float64 {
	return map[string]float64{
		"setup_s":            median(setupSec),
		"table_s":            median(t.passSec),
		"loads_per_s":        median(t.passRate),
		"allocs_per_op":      float64(mem.mallocs) / float64(t.attempted),
		"alloc_bytes_per_op": float64(mem.bytes) / float64(t.attempted),
		"max_rss_mb":         maxRSSMB,
		"ok_frac":            1 - float64(t.failed)/float64(t.attempted),
	}
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-quantile of xs. ok is false
// unless at least ten samples lie beyond it: a tail figure resting on
// fewer is not reported.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || float64(n)*(1-p) < 10 {
		return 0, false
	}
	s := slices.Sorted(slices.Values(xs))
	i := int(math.Ceil(p*float64(n))) - 1
	return s[max(i, 0)], true
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), the spread rule the benchmark is accepted by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
