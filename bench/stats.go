package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles a timing may be reported
// at, as the share of samples beyond each: 1/2, 1/10, 1/100, ...
var percentileLadder = []struct {
	p      float64
	beyond int // one sample in this many lies beyond p
}{{0.50, 2}, {0.90, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// supportedPercentile returns the highest percentile of the ladder, no
// higher than limit, that has at least ten of n samples beyond it. A
// percentile with fewer samples beyond it is set by a handful of outliers
// and does not repeat. With fewer than 20 samples only the median is left.
func supportedPercentile(n int, limit float64) float64 {
	best := percentileLadder[0].p
	for _, l := range percentileLadder {
		if l.p <= limit && n >= 10*l.beyond {
			best = l.p
		}
	}
	return best
}

// percentile reads the p-quantile of an ascending sample by nearest rank.
// It returns 0 for an empty sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// timing summarises one latency sample: the median, the tail percentile
// the sample supports (capped at p99, the name the metrics carry) and the
// sample count.
type timing struct {
	n      int
	p50    float64 // ns
	tail   float64 // ns
	tailAt float64 // which percentile tail is
	mean   float64 // ns
}

func summarize(samples []int64) timing {
	if len(samples) == 0 {
		return timing{tailAt: 0.5}
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	at := supportedPercentile(len(s), 0.99)
	return timing{
		n:      len(s),
		p50:    float64(percentile(s, 0.50)),
		tail:   float64(percentile(s, at)),
		tailAt: at,
		mean:   sum / float64(len(s)),
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), so
// -repeat prints the spread the acceptance test computes.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		const n = 4
		j := i * (len(s) + 1) / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*(len(s)+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}
