package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{5, 5, 5, 5}, 5, 5, 5},
		{[]float64{1.5, 2.5}, 2, 1.25, 2.75},
		{[]float64{50, 10, 40, 20, 30}, 30, 15, 45},
	} {
		q1, q3 := quartiles(tc.xs)
		if m := median(tc.xs); m != tc.med || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("%v: median %v quartiles [%v, %v], want %v [%v, %v]", tc.xs, m, q1, q3, tc.med, tc.q1, tc.q3)
		}
	}
	if m := median(nil); m != 0 {
		t.Errorf("median of no values = %v, want 0", m)
	}
}

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if v, beyond := percentile(xs, 90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, beyond := percentile(xs[:3], 90); v != 100 || beyond != 0 {
		t.Errorf("p90 of 3 samples = %v with %d beyond, want the max with 0", v, beyond)
	}
	if v, beyond := percentile([]float64{7, 7, 7, 7}, 50); v != 7 || beyond != 2 {
		t.Errorf("p50 of ties = %v with %d beyond, want 7 with 2", v, beyond)
	}
}

func TestClaimPairedWinRule(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	better := []float64{9, 9.1, 8.9, 9, 9.2, 8.8, 9, 9.1, 8.9, 9}
	if c := claim(base, better, true); !c.Met || c.Wins != 10 {
		t.Errorf("clear win: %+v", c)
	}
	// Ties count for neither side: eight wins and two ties out of ten
	// pairs fall short of nine tenths.
	tied := append([]float64(nil), better...)
	tied[0], tied[1] = base[0], base[1]
	if c := claim(base, tied, true); c.Met || c.Wins != 8 {
		t.Errorf("two ties: %+v", c)
	}
	if c := claim(base[:5], better[:5], true); c.Met {
		t.Errorf("five pairs met the claim: %+v", c)
	}
	// Higher-is-better metrics win the other way.
	if c := claim(better, base, false); !c.Met {
		t.Errorf("higher is better: %+v", c)
	}
	// Winning every pair by less than the base's own spread is no claim.
	noisy := []float64{8, 12, 8, 12, 8, 12, 8, 12, 8, 12}
	slightly := []float64{7.9, 11.9, 7.9, 11.9, 7.9, 11.9, 7.9, 11.9, 7.9, 11.9}
	if c := claim(noisy, slightly, true); c.Met {
		t.Errorf("within-spread difference met the claim: %+v", c)
	}
}

func testSpec() benchmarkSpec {
	var s benchmarkSpec
	json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"wall_s","unit":"s","better":"lower","bound":0.1},
		{"name":"sim_pkts_per_s","unit":"pkt/s","better":"higher","bound":0.1}],
		"per_layer":[{"name":"sim.events","unit":"count","better":"lower"}]}`), &s)
	return s
}

func verdicts(rows []compareRow) map[string]string {
	out := make(map[string]string)
	for _, r := range rows {
		out[r.Workload+" "+r.Metric] = r.Verdict
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := runSet{"w": {
		"wall_s":         {10, 10.1, 9.9, 10, 10.05},
		"sim_pkts_per_s": {100, 101, 99, 100, 100},
		"sim.events":     {5, 5, 5, 5, 5},
		"fail_frac":      {0, 0, 0, 0, 0},
	}}
	change := runSet{"w": {
		"wall_s":         {11.5, 11.6, 11.4, 11.5, 11.5}, // 15% slower
		"sim_pkts_per_s": {40, 160, 100, 50, 150},        // spread beyond the bound
		"sim.events":     {6, 6, 6, 6, 6},
		"fail_frac":      {0, 0, 0.01, 0, 0},
	}}
	got := verdicts(compareSets(base, change, testSpec()))
	want := map[string]string{
		"w wall_s":         verdictWorse,
		"w sim_pkts_per_s": verdictUnresolved,
		"w sim.events":     verdictInfo,
		"w fail_frac":      verdictWorse,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: verdict %q, want %q", k, got[k], v)
		}
	}
	// The same runs on both sides are ok.
	for k, v := range verdicts(compareSets(base, base, testSpec())) {
		if v != verdictOK && v != verdictInfo {
			t.Errorf("self-comparison %s: %q", k, v)
		}
	}
}

// TestCompareReportsMissingMetrics: a metric or workload on one side only
// is reported and fails the comparison, never passed silently.
func TestCompareReportsMissingMetrics(t *testing.T) {
	base := runSet{"w": {"wall_s": {1, 1, 1}}, "gone": {"wall_s": {2, 2, 2}}}
	change := runSet{"w": {"wall_s": {1, 1, 1}, "sim.events": {3, 3, 3}}}
	rows := compareSets(base, change, testSpec())
	got := verdicts(rows)
	if got["gone wall_s"] != "missing in change" || got["w sim.events"] != "missing in base" {
		t.Errorf("verdicts %v", got)
	}
	failing := 0
	for _, r := range rows {
		if r.failsComparison {
			failing++
		}
	}
	if failing != 2 {
		t.Errorf("%d failing rows, want 2", failing)
	}
}

func TestCompareMainReadsResultsDirectories(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64) {
		rf := resultsFile{Runs: []runResult{{Workload: "fig6_medium", Metrics: map[string]metric{
			"wall_s": {Value: wall, Unit: "s"}, "fail_frac": {Unit: "ratio"},
		}}}}
		data, _ := json.Marshal(rf)
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range []float64{10, 10.2, 9.8} {
		write(filepath.Join(dir, "base", string(rune('a'+i))+".json"), w)
		write(filepath.Join(dir, "change", string(rune('a'+i))+".json"), w*1.3)
	}
	specPath := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(specPath, []byte(`{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644)
	var out bytes.Buffer
	status := compareMain([]string{"-benchmark", specPath, "-claim", "wall_s@fig6_medium",
		filepath.Join(dir, "base"), filepath.Join(dir, "change")}, &out)
	if status != 1 || !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "not met") {
		t.Errorf("status %d, output:\n%s", status, out.String())
	}
}
