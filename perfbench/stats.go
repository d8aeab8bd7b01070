package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: fewer and the "tail" is one or two unlucky requests.
const tailBeyond = 10

// failedLatencyMS stands in for the latency of a failed or refused
// request when a summary has to be a finite number: such a request
// misses every latency limit, so it sorts above every real sample.
const failedLatencyMS = 1e9

// latencies collects one request class's latencies in milliseconds. A
// failed or refused request is recorded as +Inf, so it counts against
// the class and lands above every limit. A nil *latencies records
// nothing.
type latencies []float64

func (l *latencies) add(ms float64) {
	if l != nil {
		*l = append(*l, ms)
	}
}

func (l *latencies) fail() { l.add(math.Inf(1)) }

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

// tail is the highest percentile of a sample that still has at least
// tailBeyond samples beyond it (by rank), and its estimate.
type tail struct {
	Value  float64 // the Harrell–Davis estimate of that percentile
	Pct    float64 // the percentile, 100·rank/n
	N      int     // sample count
	Beyond int     // samples ranked above it
}

// tailOf applies the tail rule to an ascending sample: the percentile of
// rank n-tailBeyond (1-based). ok is false when the sample is too small
// for any rank to have tailBeyond samples beyond it.
func tailOf(sorted []float64) (t tail, ok bool) {
	n := len(sorted)
	rank := n - tailBeyond
	if rank < 1 {
		return tail{N: n}, false
	}
	p := float64(rank) / float64(n)
	return tail{Value: quantile(sorted, p), Pct: 100 * p, N: n, Beyond: n - rank}, true
}

// median is the Harrell–Davis estimate of an ascending sample's median,
// or NaN when empty.
func median(sorted []float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return quantile(sorted, 0.5)
}

// quantile is the Harrell–Davis estimate of quantile p of an ascending
// sample: a weighted mean of every order statistic, with weights from
// the Beta((n+1)p, (n+1)(1-p)) distribution. Latencies of a mixed
// workload cluster by request kind; a single order statistic jumps
// between clusters when noise reorders two requests near its rank,
// while this estimate moves only as much as the samples do. A failed
// request (+Inf) enters as failedLatencyMS, so failures pull the
// estimate beyond every real latency in proportion to their weight.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var sum, prev float64
	for i, x := range sorted {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		if w := cur - prev; w > 0 {
			sum += w * finite(x)
		}
		prev = cur
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes' betacf).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 10000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 3e-14 {
			break
		}
	}
	return h
}

// finite maps the +Inf of a failed request to failedLatencyMS so a
// summary stays representable in JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return failedLatencyMS
	}
	return v
}

func sumOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean of a sample, 0 when empty.
func mean(xs []float64) float64 { return ratio(sumOf(xs), float64(len(xs))) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
