package stats

import (
	"math"
	"sort"
	"testing"
)

// TestHistogramEmptyAndSingleBucketQuantiles pins the streaming-histogram
// edge cases: an empty histogram answers 0 for every q, and a single-bucket
// population answers the bucket midpoint for interior q with exact extremes
// at q=0 and q=1.
func TestHistogramEmptyAndSingleBucketQuantiles(t *testing.T) {
	var h Histogram
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}
	// One observation: one bucket.
	h.Add(777)
	if got := h.Quantile(0); got != 777 {
		t.Errorf("Quantile(0) = %g, want exact min", got)
	}
	if got := h.Quantile(1); got != 777 {
		t.Errorf("Quantile(1) = %g, want exact max", got)
	}
	mid := h.Quantile(0.5)
	if rel := math.Abs(mid-777) / 777; rel > MaxQuantileRelError {
		t.Errorf("Quantile(0.5) = %g, rel err %.4f > bound %.4f", mid, rel, MaxQuantileRelError)
	}
}

// TestHistogramMergeOrderInvariance merges the same shard histograms under
// several permutations: N, min/max, and every bucketed quantile must be
// bit-identical because bucket counts are integers. (Mean/variance follow
// Running's fixed-order contract and are deliberately not compared here.)
func TestHistogramMergeOrderInvariance(t *testing.T) {
	const k = 5
	shards := make([]Histogram, k)
	seed := uint64(7)
	for i := 0; i < 4000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		shards[i%k].Add(1 + float64(seed>>44))
	}
	fold := func(order []int) *Histogram {
		var m Histogram
		for _, i := range order {
			m.Merge(&shards[i])
		}
		return &m
	}
	base := fold([]int{0, 1, 2, 3, 4})
	for _, order := range [][]int{
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
		{1, 4, 0, 3, 2},
	} {
		m := fold(order)
		if m.N() != base.N() || m.Min() != base.Min() || m.Max() != base.Max() {
			t.Fatalf("order %v: n/min/max diverge", order)
		}
		for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
			if got, want := m.Quantile(q), base.Quantile(q); got != want {
				t.Errorf("order %v: Quantile(%g) = %g, want %g", order, q, got, want)
			}
		}
	}
}

// TestHistogramInsertionOrderInvariance adds the same values in ascending,
// descending, and interleaved order: the dense count array must land on the
// same base alignment so all quantiles agree exactly.
func TestHistogramInsertionOrderInvariance(t *testing.T) {
	vals := []float64{1e-3, 5, 120, 9999, 3.7e6, 8.8e8}
	var asc, desc, mixed Histogram
	for _, v := range vals {
		asc.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		desc.Add(vals[i])
	}
	for _, i := range []int{3, 0, 5, 2, 4, 1} {
		mixed.Add(vals[i])
	}
	for _, q := range []float64{0, 0.2, 0.5, 0.8, 1} {
		a, d, m := asc.Quantile(q), desc.Quantile(q), mixed.Quantile(q)
		if a != d || a != m {
			t.Errorf("Quantile(%g): asc=%g desc=%g mixed=%g", q, a, d, m)
		}
	}
}

// TestHistogramResetReuseIsAllocationFree verifies the memory-diet contract:
// a Reset histogram re-populated over the same data range performs zero
// heap allocations — the dense count array is retained and rezeroed.
func TestHistogramResetReuseIsAllocationFree(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	allocs := testing.AllocsPerRun(10, func() {
		h.Reset()
		for i := 1; i <= 1000; i++ {
			h.Add(float64(i))
		}
		h.Quantile(0.99)
	})
	if allocs != 0 {
		t.Errorf("Reset+reuse allocates %v objects per run, want 0", allocs)
	}
}

// TestHistogramResetReuseAcrossRanges reuses one histogram across runs with
// disjoint data ranges: counts from the dead range must not leak into the
// new population's quantiles.
func TestHistogramResetReuseAcrossRanges(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(1e9)
	}
	h.Reset()
	for i := 0; i < 100; i++ {
		h.Add(10)
	}
	if got := h.Quantile(0.99); got > 12 || got < 8 {
		t.Errorf("p99 after range switch = %g, want ~10 (dead counts leaking?)", got)
	}
	if h.N() != 100 {
		t.Errorf("N = %d, want 100", h.N())
	}
}

// TestHistogramStreamingErrorBound checks the documented accuracy contract:
// every streaming quantile is within MaxQuantileRelError of the exact
// rank-order statistic.
func TestHistogramStreamingErrorBound(t *testing.T) {
	var h Histogram
	var xs []float64
	seed := uint64(3)
	for i := 0; i < 20000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		x := math.Exp2(20 * float64(seed>>11) / float64(1<<53)) // log-uniform in [1, 2^20]
		h.Add(x)
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		got := h.Quantile(q)
		rank := int(math.Ceil(q * float64(len(xs))))
		want := xs[rank-1]
		if rel := math.Abs(got-want) / want; rel > MaxQuantileRelError {
			t.Errorf("Quantile(%g) = %g, exact %g, rel err %.5f > bound %.5f",
				q, got, want, rel, MaxQuantileRelError)
		}
	}
}

// TestHistogramExactMode checks the opt-in exact tier: quantiles are exact
// rank-order statistics, exact histograms merge exactly, and Reset keeps
// exact mode armed.
func TestHistogramExactMode(t *testing.T) {
	var h Histogram
	h.SetExactCap(0)
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		want := math.Ceil(q * 1000)
		if got := h.Quantile(q); got != want {
			t.Errorf("exact Quantile(%g) = %g, want %g", q, got, want)
		}
	}
	// Interleaved Add after a Quantile must re-sort.
	h.Add(0.5)
	if got := h.Quantile(0); got != 0.5 {
		t.Errorf("exact min after late Add = %g, want 0.5", got)
	}

	var a, b Histogram
	a.SetExactCap(0)
	b.SetExactCap(0)
	for i := 1; i <= 10; i++ {
		a.Add(float64(i))
	}
	for i := 11; i <= 20; i++ {
		b.Add(float64(i))
	}
	a.Merge(&b)
	if got := a.Quantile(0.5); got != 10 {
		t.Errorf("merged exact median = %g, want 10", got)
	}

	// Merging a streaming-only histogram leaves a sample gap: Quantile must
	// fall back to the bucketed estimate rather than panic or misreport.
	var c Histogram
	for i := 21; i <= 30; i++ {
		c.Add(float64(i))
	}
	a.Merge(&c)
	got := a.Quantile(0.5)
	if rel := math.Abs(got-15) / 15; rel > MaxQuantileRelError {
		t.Errorf("mixed-mode median = %g, want ~15 within bound", got)
	}

	// Reset keeps exact mode on and reuses the sample buffer.
	h.Reset()
	h.Add(3)
	h.Add(1)
	h.Add(2)
	if !h.QuantilesExact() {
		t.Error("Reset dropped exact mode")
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Errorf("exact median after Reset = %g, want 2", got)
	}
}
