package main

import (
	"testing"
	"time"
)

// exactCounts are per-layer values the simulator determines exactly; they
// must repeat across passes of the same seed.
var exactCounts = []string{
	"sim.events", "sharded.epochs", "netsim.run_calls", "faults.slices", "faults.applied",
	"check.checkpoints", "workload.flows", "cell.count",
}

// TestSmoke runs every workload at its reduced size: two untraced passes and
// one traced pass in this process. It checks that every metric
// BENCHMARK.json declares is reported with its unit, that exact counts
// repeat across the untraced passes, and that every fingerprint (traced
// included) agrees across passes and shard counts.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	cal := calibrate(20 * time.Millisecond)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			const seed = 3
			var passes []passResult
			for _, traced := range []bool{false, false, true} {
				p, _ := runPass(w, seed, true, traced)
				passes = append(passes, p)
			}
			expected := w.cells(seed, true)
			v := verify(expected, passes, nil)
			if v.Failed > 0 || v.Attempted != 3*len(expected) {
				t.Fatalf("%d of %d cells failed: %v", v.Failed, v.Attempted, v.Failures)
			}

			r := summarize(w, seed, true, cal, nil, passes)
			for _, m := range spec.EndToEnd {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if r.Metrics["sim.events"].Value == 0 || r.Metrics["cell.count"].Value != float64(len(expected)) {
				t.Errorf("traced pass reported %v events over %v cells", r.Metrics["sim.events"].Value, r.Metrics["cell.count"].Value)
			}

			a, b := layerValues(passes[0].Cells), layerValues(passes[1].Cells)
			for _, name := range exactCounts {
				if a[name] != b[name] {
					t.Errorf("%s differs between passes: %v vs %v", name, a[name], b[name])
				}
			}
		})
	}
}

// TestEndToEndDefsMatchBenchmarkJSON keeps the metric tables in the code
// and in BENCHMARK.json in step, names, units and directions.
func TestEndToEndDefsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEndDefs[i]; d != (metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayerDefs))
	}
	for i, m := range spec.PerLayer {
		if d := perLayerDefs[i]; d != m {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
}
