package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that has at least ten samples
// beyond it: the eleventh-largest sample, and that percentile. Below 20
// samples that percentile would not lie above the median, so it falls
// back to the largest sample.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if n < 20 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// latencies holds one session operation's successful latencies in ms, by
// session program. The programs differ several-fold in cost, so the pooled
// samples form one cluster per program; a pooled median falls between two
// clusters and jumps between them from run to run. Statistics are
// therefore taken per program and then combined.
type latencies map[string][]float64

func (l *latencies) add(prog string, ms float64) {
	if *l == nil {
		*l = latencies{}
	}
	(*l)[prog] = append((*l)[prog], ms)
}

func (l *latencies) merge(o latencies) {
	for p, xs := range o {
		for _, x := range xs {
			l.add(p, x)
		}
	}
}

func (l latencies) count() int {
	n := 0
	for _, xs := range l {
		n += len(xs)
	}
	return n
}

// p50 is the geomean over programs of each program's median.
func (l latencies) p50() float64 {
	var meds []float64
	for _, xs := range l {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// rate is how many operations per second n clients complete when each
// takes its program's median time and programs come in equal shares.
func (l latencies) rate(clients int) float64 {
	sum := 0.0
	for _, xs := range l {
		sum += median(xs)
	}
	return ratio(float64(clients*len(l))*1e3, sum)
}

// tail is the geomean over programs of each program's tail (see tail),
// and the lowest of those percentiles.
func (l latencies) tail() (value, pct float64) {
	var tails []float64
	pct = 100
	for _, xs := range l {
		v, p := tail(xs)
		tails = append(tails, v)
		pct = min(pct, p)
	}
	return geomean(tails), pct
}

// geomean is the geometric mean of positive values; 0 if any is not
// positive or there are none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
