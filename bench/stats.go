package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer and the figure is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs, and refuses
// — with an error naming the shortfall — when fewer than minBeyond samples
// lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0,100)", p)
	}
	beyond := int(math.Floor(float64(len(xs)) * (100 - p) / 100))
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, len(xs), beyond, minBeyond)
	}
	return quantile(sorted(xs), p/100), nil
}

// tail returns the p-th percentile when it has minBeyond samples beyond it
// and the median otherwise, with the percentile actually read.
func tail(xs []float64, p float64) (value, read float64) {
	if v, err := percentile(xs, p); err == nil {
		return v, p
	}
	return median(xs), 50
}

// spread is the interquartile distance of xs as a share of the median,
// with the quartiles statistics.quantiles(xs, n=4) gives (the exclusive
// method): the figure the acceptance rule compares with a metric's bound.
func spread(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / quantile(s, 0.5)
}
