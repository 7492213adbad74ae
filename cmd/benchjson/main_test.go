package main

import (
	"math"
	"strings"
	"testing"

	"baldur/internal/sim/simbench"
)

func rep(rs ...result) report {
	return report{GoOS: "linux", GoArch: "amd64", Benchmarks: rs}
}

// gate returns the entry the table gates name with.
func gate(name string) entry {
	for _, en := range entries {
		if en.name == name {
			return en
		}
	}
	panic("no entry " + name)
}

// metric is a result of name reporting one metric.
func metric(name, key string, v float64) report {
	return rep(result{Name: name, NsPerOp: 100, Extra: map[string]float64{key: v}})
}

func TestCompareFaultsOverheadGate(t *testing.T) {
	// The faults_overhead gate is absolute on the fresh run: the disabled
	// fault path may cost at most the per-run controller allocation.
	fresh := metric("faults_overhead", "extra_allocs_op", 1)
	var out strings.Builder
	if !compare(fresh, &out) {
		t.Errorf("1 extra alloc/op failed the %g-alloc gate:\n%s", gate("faults_overhead").hi, out.String())
	}
	if !strings.Contains(out.String(), "faults_overhead") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}
}

func TestCompareFaultsOverheadRegression(t *testing.T) {
	fresh := metric("faults_overhead", "extra_allocs_op", 192)
	var out strings.Builder
	if compare(fresh, &out) {
		t.Error("a per-packet allocation on the disabled fault path passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}
}

func TestCompareTraceOverheadGate(t *testing.T) {
	// trace_overhead is gated absolutely on the fresh run, like
	// faults_overhead: spans land in preallocated rings, so tracing may cost
	// at most measurement-window slack on the allocation side.
	fresh := metric("trace_overhead", "extra_allocs_op", 1)
	var out strings.Builder
	if !compare(fresh, &out) {
		t.Errorf("1 extra alloc/op failed the %g-alloc gate:\n%s", gate("trace_overhead").hi, out.String())
	}
	if !strings.Contains(out.String(), "trace_overhead") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}

	leak := metric("trace_overhead", "extra_allocs_op", 960)
	out.Reset()
	if compare(leak, &out) {
		t.Error("a per-span allocation passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}
}

func TestCompareWorkloadOverheadGate(t *testing.T) {
	// workload_overhead is gated absolutely on the fresh run, like
	// faults_overhead: non-flow packets traversing an attached workload
	// driver's delivery hook return after one branch, so the event-loop
	// allocation differential may cost at most measurement-window slack.
	fresh := metric("workload_overhead", "extra_allocs_op", 0)
	var out strings.Builder
	if !compare(fresh, &out) {
		t.Errorf("0 extra allocs/op failed the %g-alloc gate:\n%s", gate("workload_overhead").hi, out.String())
	}
	if !strings.Contains(out.String(), "workload_overhead") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}

	leak := metric("workload_overhead", "extra_allocs_op", 192)
	out.Reset()
	if compare(leak, &out) {
		t.Error("a per-packet allocation on the no-workload delivery path passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}
}

func TestCompareOverheadMissingMetric(t *testing.T) {
	// An entry without its metric has measured nothing: it must FAIL, not
	// read as 0 and pass.
	for _, en := range entries {
		fresh := metric(en.name, "allocs_op", 3)
		var out strings.Builder
		if compare(fresh, &out) {
			t.Errorf("%s without %s passed the gate:\n%s", en.name, en.metric, out.String())
		}
		if !strings.Contains(out.String(), en.name) || !strings.Contains(out.String(), "FAIL") {
			t.Errorf("%s: no FAIL verdict printed:\n%s", en.name, out.String())
		}
	}
}

func TestCompareTwinSpeedupFloor(t *testing.T) {
	// twin_speedup is gated against an absolute floor on the fresh run.
	floor := gate("twin_speedup").lo
	var out strings.Builder
	if compare(metric("twin_speedup", "speedup_x", floor/2), &out) {
		t.Errorf("speedup below the %gx floor passed the gate:\n%s", floor, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}

	out.Reset()
	if !compare(metric("twin_speedup", "speedup_x", floor*2), &out) {
		t.Errorf("speedup above the floor failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}
}

func TestCompareIgnoresUngatedBenchmarks(t *testing.T) {
	// Names outside the entries table are never gated, whatever they report.
	fresh := metric("fig6_transpose", "x_ref", 1000)
	var out strings.Builder
	if !compare(fresh, &out) {
		t.Errorf("ungated benchmark failed the gate:\n%s", out.String())
	}
	if out.Len() != 0 {
		t.Errorf("ungated benchmark produced output:\n%s", out.String())
	}
}

func TestCompareTieDispatchRatio(t *testing.T) {
	// engine_tie_dispatch is gated on its x_typed ratio to the typed engine
	// loop timed alternately in the same process: the radix sort (about
	// 0.6x) passes, a quadratic tie-group sort (about 100x) fails.
	var out strings.Builder
	if !compare(metric("engine_tie_dispatch", "x_typed", 0.6), &out) {
		t.Errorf("a 0.6x tie dispatch failed the %gx ceiling:\n%s", gate("engine_tie_dispatch").hi, out.String())
	}
	if !strings.Contains(out.String(), "engine_tie_dispatch") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}

	out.Reset()
	if compare(metric("engine_tie_dispatch", "x_typed", 100), &out) {
		t.Error("a 100x tie dispatch passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}
}

func TestCompareTieActorsRatio(t *testing.T) {
	// engine_tie_dispatch_actors has its own ceiling: the radix sort (about
	// 0.7x) passes, pdqsort on permuted actor keys (about 2x) fails.
	var out strings.Builder
	if !compare(metric("engine_tie_dispatch_actors", "x_typed", 0.7), &out) {
		t.Errorf("a 0.7x actor tie dispatch failed the %gx ceiling:\n%s", gate("engine_tie_dispatch_actors").hi, out.String())
	}
	out.Reset()
	if compare(metric("engine_tie_dispatch_actors", "x_typed", 2), &out) {
		t.Error("a 2x actor tie dispatch passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}
}

func TestCompareGateKinds(t *testing.T) {
	// Every row of the entries table, on both sides of each finite end of
	// its range: a value at the end prints ok, the next float outside it
	// prints REGRESSION and fails the check. An exact count is both ends.
	for _, en := range entries {
		for _, end := range []struct{ at, outside float64 }{
			{en.lo, math.Nextafter(en.lo, math.Inf(-1))},
			{en.hi, math.Nextafter(en.hi, math.Inf(1))},
		} {
			if math.IsInf(end.at, 0) {
				continue
			}
			var out strings.Builder
			if !compare(metric(en.name, en.metric, end.at), &out) || !strings.Contains(out.String(), en.name+" ") || !strings.HasSuffix(out.String(), " ok\n") {
				t.Errorf("%s: %s = %g, at the end of its range, did not pass:\n%s", en.name, en.metric, end.at, out.String())
			}
			out.Reset()
			if compare(metric(en.name, en.metric, end.outside), &out) || !strings.Contains(out.String(), en.name+" ") || !strings.Contains(out.String(), "REGRESSION") {
				t.Errorf("%s: %s = %g, just outside its range, did not fail:\n%s", en.name, en.metric, end.outside, out.String())
			}
		}
	}
}

// TestComparePeakRSSUnavailable: a bytes_per_node of 0 means the platform
// has no peak RSS to read; the entry WARNs and passes.
func TestComparePeakRSSUnavailable(t *testing.T) {
	var out strings.Builder
	if !compare(metric("scale_datacenter", "bytes_per_node", 0), &out) || !strings.Contains(out.String(), "WARN") {
		t.Errorf("an unavailable peak RSS did not WARN and pass:\n%s", out.String())
	}
}

// TestMedianIgnoresOneOutlier: twin_speedup's gated number, and every
// ratio entry's, is a median, so one pass slowed (or sped up) by the host
// cannot move it past the others.
func TestMedianIgnoresOneOutlier(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{117, 110, 114, 143, 138}, 117},
		{[]float64{118, 137, 135, 141, 20}, 135},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := simbench.Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
