package main

import (
	"strings"
	"testing"
)

func rep(rs ...result) report {
	return report{GoOS: "linux", GoArch: "amd64", Benchmarks: rs}
}

// limit returns the ceiling or floor the entries table gates name against.
func limit(name string) float64 {
	for _, en := range entries {
		if en.name == name {
			return en.limit
		}
	}
	panic("no entry " + name)
}

func TestCompareWithinTolerance(t *testing.T) {
	base := rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100})
	fresh := rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 110})
	var out strings.Builder
	if !compare(base, fresh, &out) {
		t.Errorf("10%% growth failed the %.0f%% gate:\n%s", checkTolerance*100, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}
}

func TestCompareRegression(t *testing.T) {
	base := rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100})
	fresh := rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 130})
	var out strings.Builder
	if compare(base, fresh, &out) {
		t.Error("30% growth passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}
}

func TestCompareMissingFromBaseline(t *testing.T) {
	// A gated benchmark introduced by this run must be an explicit SKIP, not
	// a crash and not a silent pass.
	base := rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100})
	fresh := rep(
		result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100},
		result{Name: "telemetry_overhead", NsPerOp: 50},
	)
	var out strings.Builder
	if !compare(base, fresh, &out) {
		t.Errorf("benchmark missing from baseline failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "telemetry_overhead") || !strings.Contains(out.String(), "SKIP: not in baseline") {
		t.Errorf("missing-from-baseline benchmark not reported as SKIP:\n%s", out.String())
	}
}

func TestCompareMissingFromRun(t *testing.T) {
	// A gated baseline entry the run no longer produces means the baseline is
	// stale: warn loudly, don't fail (the rename PR regenerates it).
	base := rep(
		result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100},
		result{Name: "telemetry_overhead", NsPerOp: 50},
	)
	fresh := rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100})
	var out strings.Builder
	if !compare(base, fresh, &out) {
		t.Errorf("stale baseline entry failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "telemetry_overhead") || !strings.Contains(out.String(), "not produced by this run") {
		t.Errorf("stale baseline entry not warned about:\n%s", out.String())
	}
}

func TestCompareFaultsOverheadGate(t *testing.T) {
	// The faults_overhead gate is absolute on the fresh run (no baseline
	// entry needed): the disabled fault path may cost at most the per-run
	// controller allocation.
	fresh := rep(result{Name: "faults_overhead", NsPerOp: 100,
		Extra: map[string]float64{"extra_allocs_op": 1}})
	var out strings.Builder
	if !compare(rep(), fresh, &out) {
		t.Errorf("1 extra alloc/op failed the %.0f-alloc gate:\n%s", limit("faults_overhead"), out.String())
	}
	if !strings.Contains(out.String(), "faults_overhead") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}
}

func TestCompareFaultsOverheadRegression(t *testing.T) {
	fresh := rep(result{Name: "faults_overhead", NsPerOp: 100,
		Extra: map[string]float64{"extra_allocs_op": 192}})
	var out strings.Builder
	if compare(rep(), fresh, &out) {
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
	fresh := rep(result{Name: "trace_overhead", NsPerOp: 100,
		Extra: map[string]float64{"extra_allocs_op": 1}})
	var out strings.Builder
	if !compare(rep(), fresh, &out) {
		t.Errorf("1 extra alloc/op failed the %.0f-alloc gate:\n%s", limit("trace_overhead"), out.String())
	}
	if !strings.Contains(out.String(), "trace_overhead") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}

	leak := rep(result{Name: "trace_overhead", NsPerOp: 100,
		Extra: map[string]float64{"extra_allocs_op": 960}})
	out.Reset()
	if compare(rep(), leak, &out) {
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
	fresh := rep(result{Name: "workload_overhead", NsPerOp: 100,
		Extra: map[string]float64{"extra_allocs_op": 1}})
	var out strings.Builder
	if !compare(rep(), fresh, &out) {
		t.Errorf("1 extra alloc/op failed the %.0f-alloc gate:\n%s", limit("workload_overhead"), out.String())
	}
	if !strings.Contains(out.String(), "workload_overhead") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}

	leak := rep(result{Name: "workload_overhead", NsPerOp: 100,
		Extra: map[string]float64{"extra_allocs_op": 192}})
	out.Reset()
	if compare(rep(), leak, &out) {
		t.Error("a per-packet allocation on the no-workload delivery path passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}
}

func TestCompareOverheadMissingMetric(t *testing.T) {
	// An overhead entry without its extra_allocs_op metric has measured
	// nothing: it must FAIL, not read as 0 extra allocs and pass.
	for _, name := range []string{"faults_overhead", "trace_overhead", "workload_overhead"} {
		fresh := rep(result{Name: name, NsPerOp: 100, Extra: map[string]float64{"allocs_op": 3}})
		var out strings.Builder
		if compare(rep(), fresh, &out) {
			t.Errorf("%s without extra_allocs_op passed the gate:\n%s", name, out.String())
		}
		if !strings.Contains(out.String(), name) || !strings.Contains(out.String(), "FAIL") {
			t.Errorf("%s: no FAIL verdict printed:\n%s", name, out.String())
		}
	}
}

func TestCompareUnusableBaselineEntry(t *testing.T) {
	base := rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 0})
	fresh := rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100})
	var out strings.Builder
	if !compare(base, fresh, &out) {
		t.Errorf("zero-ns/op baseline entry failed the gate instead of warning:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "WARN") {
		t.Errorf("unusable baseline entry not warned about:\n%s", out.String())
	}
}

func TestCompareTwinSpeedupFloor(t *testing.T) {
	// twin_speedup is gated against an absolute floor on the fresh run, not
	// a baseline-relative tolerance — it must fail below the floor even when
	// the baseline agrees, and pass above it with no baseline entry at all.
	low := rep(result{Name: "twin_speedup", NsPerOp: 1, Extra: map[string]float64{"speedup_x": limit("twin_speedup") / 2}})
	var out strings.Builder
	if compare(low, low, &out) {
		t.Errorf("speedup below the %.0fx floor passed the gate:\n%s", limit("twin_speedup"), out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}

	high := rep(result{Name: "twin_speedup", NsPerOp: 1, Extra: map[string]float64{"speedup_x": limit("twin_speedup") * 2}})
	out.Reset()
	if !compare(rep(), high, &out) {
		t.Errorf("speedup above the floor failed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}
}

func TestCompareIgnoresUngatedBenchmarks(t *testing.T) {
	// Experiment-level entries vary across machines and are never gated,
	// whatever their delta.
	base := rep(result{Name: "fig6_transpose", NsPerOp: 100})
	fresh := rep(result{Name: "fig6_transpose", NsPerOp: 1000})
	var out strings.Builder
	if !compare(base, fresh, &out) {
		t.Errorf("ungated benchmark failed the gate:\n%s", out.String())
	}
	if out.Len() != 0 {
		t.Errorf("ungated benchmark produced output:\n%s", out.String())
	}
}

func TestCompareTieDispatchRatio(t *testing.T) {
	// engine_tie_dispatch is gated as a ratio to the typed engine loop of
	// the same run, with no baseline entry: a quadratic tie-group sort
	// (about 100x) fails, an O(n log n) one (about 1x) passes.
	typed := result{Name: "engine_schedule_dispatch_typed", NsPerOp: 50}
	fast := rep(typed, result{Name: "engine_tie_dispatch", NsPerOp: 45})
	var out strings.Builder
	if !compare(rep(), fast, &out) {
		t.Errorf("a 0.9x tie dispatch failed the %.0fx ceiling:\n%s", limit("engine_tie_dispatch"), out.String())
	}
	if !strings.Contains(out.String(), "engine_tie_dispatch") || !strings.Contains(out.String(), "ok") {
		t.Errorf("no ok verdict printed:\n%s", out.String())
	}

	slow := rep(typed, result{Name: "engine_tie_dispatch", NsPerOp: 5000})
	out.Reset()
	if compare(rep(), slow, &out) {
		t.Error("a 100x tie dispatch passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}

	alone := rep(result{Name: "engine_tie_dispatch", NsPerOp: 45})
	out.Reset()
	if compare(rep(), alone, &out) {
		t.Error("a tie dispatch with no typed loop to divide by passed the gate")
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("no FAIL verdict printed:\n%s", out.String())
	}
}

func TestCompareTieActorsRatio(t *testing.T) {
	// engine_tie_dispatch_actors has its own, tighter ceiling: the radix
	// sort (about 0.7x) passes, pdqsort on permuted actor keys (about 2x)
	// fails, and it too needs the typed loop of the same run.
	typed := result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100}
	var out strings.Builder
	if !compare(rep(), rep(typed, result{Name: "engine_tie_dispatch_actors", NsPerOp: 70}), &out) {
		t.Errorf("a 0.7x actor tie dispatch failed the %gx ceiling:\n%s", limit("engine_tie_dispatch_actors"), out.String())
	}
	out.Reset()
	if compare(rep(), rep(typed, result{Name: "engine_tie_dispatch_actors", NsPerOp: 200}), &out) {
		t.Error("a 2x actor tie dispatch passed the gate")
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("no REGRESSION verdict printed:\n%s", out.String())
	}
	out.Reset()
	if compare(rep(), rep(result{Name: "engine_tie_dispatch_actors", NsPerOp: 70}), &out) {
		t.Error("an actor tie dispatch with no typed loop to divide by passed the gate")
	}
}

func TestCompareGateKinds(t *testing.T) {
	// Every row of the entries table, on both sides of its gate: a
	// measurement at or just inside the limit prints ok, one just outside
	// prints REGRESSION and fails the check.
	const typedNs = 100
	typed := result{Name: "engine_schedule_dispatch_typed", NsPerOp: typedNs}
	for _, en := range entries {
		var base, pass, fail report
		switch en.gate {
		case baselineNs:
			base = rep(result{Name: en.name, NsPerOp: 1000})
			pass = rep(result{Name: en.name, NsPerOp: 1000 * (1 + checkTolerance*0.9)})
			fail = rep(result{Name: en.name, NsPerOp: 1000 * (1 + checkTolerance*1.1)})
		case typedRatio:
			pass = rep(typed, result{Name: en.name, NsPerOp: typedNs * en.limit * 0.9})
			fail = rep(typed, result{Name: en.name, NsPerOp: typedNs * en.limit * 1.1})
		case allocsCeil:
			pass = rep(result{Name: en.name, Extra: map[string]float64{"extra_allocs_op": en.limit}})
			fail = rep(result{Name: en.name, Extra: map[string]float64{"extra_allocs_op": en.limit + 1}})
		case bytesPerNodeCeil:
			pass = rep(result{Name: en.name, Extra: map[string]float64{"bytes_per_node": en.limit}})
			fail = rep(result{Name: en.name, Extra: map[string]float64{"bytes_per_node": en.limit + 1}})
		case speedupFloor:
			pass = rep(result{Name: en.name, Extra: map[string]float64{"speedup_x": en.limit}})
			fail = rep(result{Name: en.name, Extra: map[string]float64{"speedup_x": en.limit - 1}})
		default:
			t.Fatalf("%s: gate kind %d has no case here", en.name, en.gate)
		}
		var out strings.Builder
		if !compare(base, pass, &out) || !strings.Contains(out.String(), en.name) || !strings.Contains(out.String(), " ok\n") {
			t.Errorf("%s: a measurement inside the gate did not pass:\n%s", en.name, out.String())
		}
		out.Reset()
		if compare(base, fail, &out) || !strings.Contains(out.String(), en.name+" ") || !strings.Contains(out.String(), "REGRESSION") {
			t.Errorf("%s: a measurement outside the gate did not fail:\n%s", en.name, out.String())
		}
	}
}

// TestMedianIgnoresOneOutlier: twin_speedup's gated number is the median
// of its passes, so one pass slowed (or sped up) by the host cannot move
// it past the others.
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
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
