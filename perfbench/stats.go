package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailMinBeyond is the number of samples that must lie strictly above a
// reported tail percentile: a tail backed by fewer samples is noise.
const tailMinBeyond = 10

// tail is the highest whole percentile of a sample that still has at
// least tailMinBeyond samples above it, with the value at that percentile.
type tail struct {
	Pct   int     // percentile, 1..99; 0 when the sample is too small
	Value float64 // sample value at Pct
	N     int     // sample count
}

// tailOf applies the tail rule: walk down from p99 and stop at the first
// percentile p whose nearest-rank value has at least tailMinBeyond samples
// ranked above it. A sample with fewer than tailMinBeyond+1 values has no
// tail (Pct 0).
func tailOf(xs []float64) tail {
	n := len(xs)
	t := tail{N: n}
	if n <= tailMinBeyond {
		return t
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for p := 99; p >= 1; p-- {
		// Nearest-rank: the value at rank ceil(p/100 * n), 1-based.
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if n-rank >= tailMinBeyond {
			t.Pct, t.Value = p, s[rank-1]
			return t
		}
	}
	return t
}

// metricName is the benchmark's name rule: a leading letter or digit, then
// up to 63 more letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the unit rule: up to 16 letters, digits, '_', '/', '%',
// '.' or '-'.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkMetric validates one metric's name and unit.
func checkMetric(name, unit string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q breaks the name rule", name)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q breaks the unit rule", name, unit)
	}
	return nil
}

// overlapPeak returns the largest number of [start, end) intervals that
// are open at one instant.
func overlapPeak(starts, ends []int64) int {
	type edge struct {
		t int64
		d int
	}
	edges := make([]edge, 0, 2*len(starts))
	for i := range starts {
		edges = append(edges, edge{starts[i], +1}, edge{ends[i], -1})
	}
	// Ends sort before starts at the same instant: a run that ends exactly
	// when another begins did not overlap it.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].d < edges[j].d
	})
	peak, cur := 0, 0
	for _, e := range edges {
		cur += e.d
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
