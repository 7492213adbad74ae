// Package stats provides the streaming statistics used to summarize
// simulation results: running mean/variance, log-bucketed latency histograms
// with percentile queries, and geometric means for cross-workload summaries
// (the paper reports Geomean speedups in Fig 7).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates count, mean and variance online (Welford's method),
// plus min/max. The zero value is ready to use.
type Running struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance, or 0 with <2 observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observation, or 0 with no observations.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 with no observations.
func (r *Running) Max() float64 { return r.max }

// Merge folds other into r using Chan et al.'s parallel moment update.
// Merging the same operands in the same order is bit-reproducible, but the
// result varies with grouping; order-sensitive consumers must merge in a
// fixed order (e.g. ascending node ID).
func (r *Running) Merge(other *Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *other
		return
	}
	n := r.n + other.n
	delta := other.mean - r.mean
	mean := r.mean + delta*float64(other.n)/float64(n)
	m2 := r.m2 + other.m2 + delta*delta*float64(r.n)*float64(other.n)/float64(n)
	mn, mx := r.min, r.max
	if other.min < mn {
		mn = other.min
	}
	if other.max > mx {
		mx = other.max
	}
	*r = Running{n: n, mean: mean, m2: m2, min: mn, max: mx}
}

// Histogram is a logarithmically bucketed histogram of non-negative values.
// Buckets grow geometrically so that percentile queries stay within a fixed
// relative error across the nine decades spanned by network latencies
// (ns..ms). The zero value is ready.
//
// Memory is bounded by the dynamic range of the data, not the sample count:
// counts live in a dense array covering [base, base+len(counts)) bucket
// indices, so a run spanning ns..ms costs ~600 int64 slots (~5 KB) no matter
// how many samples stream through. Counts are integers, which makes Merge
// exactly associative and commutative — folding shards in any order yields
// bit-identical quantiles (the shard-order fold invariant).
//
// Quantile error bound: with bucketsPerOctave=30 a bucket spans a 2^(1/30)
// ratio and the estimate is the geometric midpoint, so the relative error is
// at most 2^(1/60)-1 ≈ 1.16%. For exact quantiles, SetExactCap retains raw
// samples (up to a cap) and Quantile switches to exact rank-order selection.
type Histogram struct {
	// counts[i] is the number of samples in bucket base+i; zero counts
	// samples with x <= 0 (which have no logarithm).
	counts []int64
	base   int
	zero   int64
	run    Running
	// samples retains the raw observations when exact mode is on.
	exact   bool
	samples []float64
	// sampleSorted tracks whether samples is currently sorted, so repeated
	// Quantile calls after the same Add sequence sort only once.
	sampleSorted bool
	// exactCap bounds sample retention (0 = unbounded). Once the retained
	// set would exceed the cap, the samples are released and quantiles fall
	// back to bucket estimates for the rest of the histogram's life (until
	// Reset). The overflow decision depends only on the total observation
	// count, never on which shard saw a sample first, so capped histograms
	// folded across shards answer identically for any shard count.
	exactCap  int
	exactOver bool
}

// bucketsPerOctave controls the relative resolution of the histogram.
const bucketsPerOctave = 30

// MaxQuantileRelError is the worst-case relative error of Quantile in
// streaming (non-exact) mode: half a bucket on the log scale,
// 2^(1/(2*bucketsPerOctave)) - 1 ≈ 1.16%.
var MaxQuantileRelError = math.Exp2(1/(2.0*bucketsPerOctave)) - 1

func bucketOf(x float64) int {
	if x <= 0 {
		return math.MinInt32
	}
	return int(math.Floor(math.Log2(x) * bucketsPerOctave))
}

func bucketLow(b int) float64 {
	return math.Exp2(float64(b) / bucketsPerOctave)
}

// SetExactCap turns on exact mode: Add retains raw observations (8 bytes
// each) and Quantile answers by exact rank-order selection instead of bucket
// midpoints. Up to cap observations are kept; the moment the (cap+1)-th
// would be retained, the sample set is dropped and Quantile falls back to
// the bucketed estimate (relative error at most MaxQuantileRelError) for the
// rest of the histogram's life. cap <= 0 means unbounded. The same cap must
// be set on every histogram a fold merges into, so the exact-vs-bucketed
// decision is a pure function of the total sample count and the folded
// result is bit-identical for any shard count. Must be called before the
// first Add.
func (h *Histogram) SetExactCap(cap int) {
	h.exact = true
	if cap < 0 {
		cap = 0
	}
	h.exactCap = cap
}

// QuantilesExact reports whether Quantile currently answers from the full
// retained sample set (exact rank-order statistics). It is false when exact
// mode is off, when the cap overflowed, or when a streaming-only histogram
// was merged in — in all of which cases quantiles are bucket estimates with
// relative error at most MaxQuantileRelError.
func (h *Histogram) QuantilesExact() bool {
	n := h.run.N()
	return h.exact && n > 0 && int64(len(h.samples)) == n
}

// retain appends one observation to the exact sample set, enforcing the cap.
func (h *Histogram) retain(x float64) {
	if h.exactOver {
		return
	}
	if h.exactCap > 0 && len(h.samples) >= h.exactCap {
		h.exactOver = true
		h.samples = nil
		return
	}
	h.samples = append(h.samples, x)
	h.sampleSorted = false
}

// ensure grows the dense count array to cover bucket index b.
func (h *Histogram) ensure(b int) {
	if len(h.counts) == 0 {
		// Round the base down to a multiple of 64 so histograms over the
		// same data range land on the same backing range regardless of
		// which sample arrived first.
		h.base = b &^ 63
		h.counts = make([]int64, 64)
		return
	}
	lo, hi := h.base, h.base+len(h.counts) // covered: [lo, hi)
	if b >= lo && b < hi {
		return
	}
	nlo, nhi := lo, hi
	if b < nlo {
		nlo = b &^ 63
	}
	if b >= nhi {
		nhi = (b + 64) &^ 63
	}
	grown := make([]int64, nhi-nlo)
	copy(grown[lo-nlo:], h.counts)
	h.base, h.counts = nlo, grown
}

// Add records one observation. Negative values are clamped to zero.
func (h *Histogram) Add(x float64) {
	if x < 0 {
		x = 0
	}
	if x <= 0 {
		h.zero++
	} else {
		b := bucketOf(x)
		h.ensure(b)
		h.counts[b-h.base]++
	}
	if h.exact {
		h.retain(x)
	}
	h.run.Add(x)
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.run.N() }

// Mean returns the exact arithmetic mean of the observations.
func (h *Histogram) Mean() float64 { return h.run.Mean() }

// Max returns the exact maximum observation.
func (h *Histogram) Max() float64 { return h.run.Max() }

// Min returns the exact minimum observation.
func (h *Histogram) Min() float64 { return h.run.Min() }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1). With no
// observations it returns 0. In streaming mode the estimate uses the
// geometric midpoint of the containing bucket (relative error at most
// MaxQuantileRelError); in exact mode it returns the exact rank-order
// statistic.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.run.N()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.run.Min()
	}
	if q >= 1 {
		return h.run.Max()
	}
	// rank is 1-based: the ceil(q*n)-th smallest observation.
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	// Exact selection requires a full sample set: merging a streaming-only
	// histogram into an exact one leaves a gap, so fall back to buckets.
	if h.exact && int64(len(h.samples)) == n {
		if !h.sampleSorted {
			sort.Float64s(h.samples)
			h.sampleSorted = true
		}
		return h.samples[rank-1]
	}
	seen := h.zero
	if seen >= rank {
		return 0
	}
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo := bucketLow(h.base + i)
			hi := bucketLow(h.base + i + 1)
			return math.Sqrt(lo * hi)
		}
	}
	return h.run.Max()
}

// P99 returns the 99th-percentile estimate (the paper's "tail latency").
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Merge folds other into h. Bucket counts are integers, so the bucketed
// quantiles of the result are invariant to merge order and grouping (the
// mean/variance moments follow Running.Merge's fixed-order contract).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.run.N() == 0 {
		return
	}
	h.zero += other.zero
	if len(other.counts) > 0 {
		h.ensure(other.base)
		h.ensure(other.base + len(other.counts) - 1)
		off := other.base - h.base
		for i, c := range other.counts {
			h.counts[off+i] += c
		}
	}
	if h.exact {
		for _, x := range other.samples {
			h.retain(x)
		}
		// A merged-in histogram that itself dropped samples (overflowed cap
		// or streaming-only) leaves len(samples) < N, which QuantilesExact
		// and Quantile already treat as the bucketed fallback.
	}
	h.run.Merge(&other.run)
}

// Reset empties the histogram while keeping its count array allocated, so a
// histogram can be reused across runs without reallocating (a fresh run over
// a similar data range costs zero allocations). Exact mode is preserved.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.zero = 0
	h.run = Running{}
	h.samples = h.samples[:0]
	h.sampleSorted = false
	h.exactOver = false
}

// String summarizes the histogram for logs.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p99=%.4g max=%.4g",
		h.N(), h.Mean(), h.Quantile(0.5), h.P99(), h.Max())
}

// Geomean returns the geometric mean of xs, ignoring non-positive entries
// (which would otherwise poison the logarithm). Returns 0 for no valid input.
func Geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
