package main

import (
	"math"
	"sort"
	"time"
)

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// quantile returns the q-quantile of ascending samples by nearest rank:
// the smallest sample with at least a share q of the samples at or
// below it. 0 when there are none.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond is how many samples lie strictly above the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

// tailLevels are the percentiles a report may quote, ascending.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile before it
// is quoted: fewer and the number is one slow request, not a tail.
const minBeyond = 10

// highestSupported picks the highest of tailLevels with at least
// minBeyond samples beyond it, or 0.5 when even the median has not.
func highestSupported(n int) float64 {
	best := tailLevels[0]
	for _, q := range tailLevels {
		if beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func meanDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return sum / time.Duration(len(d))
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is what the driver's acceptance check uses.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4, 1-based; the neighbour pair is clamped to
		// the sample and the weight is not, as in the Python source.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// medianDuration is the median of d, the mean of the middle two when
// there is an even number; 0 when empty. It sorts d.
func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sortDurations(d)
	if n := len(d); n%2 == 0 {
		return (d[n/2-1] + d[n/2]) / 2
	}
	return d[len(d)/2]
}
