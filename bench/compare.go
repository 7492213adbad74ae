package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads: each
// end-to-end metric's regression bound, as a share of the base median.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &s)
	}
	if err != nil {
		return s, fmt.Errorf("reading %s: %w", path, err)
	}
	return s, nil
}

// runSet holds every run's value of each metric: workload → metric → values
// in run order.
type runSet map[string]map[string][]float64

func (s runSet) add(r *runResult) {
	m := s[r.Workload]
	if m == nil {
		m = make(map[string][]float64)
		s[r.Workload] = m
	}
	for name, v := range r.Metrics {
		m[name] = append(m[name], v.Value)
	}
}

// loadRuns reads a results file written by -out, or every *.json results
// file in a directory, in name order.
func loadRuns(path string) (runSet, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	s := make(runSet)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for i := range rf.Runs {
			s.add(&rf.Runs[i])
		}
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return s, nil
}

// compareRow is one (workload, metric) comparison.
type compareRow struct {
	Workload, Metric string
	Base, Change     []float64
	Verdict          string
	Bound            float64 // 0: no bound (per-layer metric)
	lowerIsBetter    bool
	failsComparison  bool
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info"
)

// compareSets compares every metric either side reports. End-to-end
// metrics are ok, worse (the change's median is worse than the base's by
// more than the bound) or unresolved (a side's quartile spread exceeds the
// bound and not every change run beats every base run). fail_frac is worse
// on any increase. Per-layer metrics have no bound and are informational. A
// metric only one side reports is missing, which fails the comparison.
func compareSets(base, change runSet, spec benchmarkSpec) []compareRow {
	bounds := make(map[string]float64)
	better := map[string]string{"fail_frac": "lower"}
	order := []string{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
		order = append(order, m.Name)
	}
	order = append(order, "fail_frac")
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
		order = append(order, m.Name)
	}
	rank := make(map[string]int)
	for i, n := range order {
		rank[n] = i
	}

	var rows []compareRow
	for _, w := range unionKeys(base, change) {
		for _, m := range unionKeys(base[w], change[w]) {
			r := compareRow{Workload: w, Metric: m, Base: base[w][m], Change: change[w][m],
				Bound: bounds[m], lowerIsBetter: better[m] != "higher"}
			switch {
			case len(r.Base) == 0:
				r.Verdict, r.failsComparison = "missing in base", true
			case len(r.Change) == 0:
				r.Verdict, r.failsComparison = "missing in change", true
			case m == "fail_frac":
				r.Verdict = verdictOK
				if maxOf(r.Change) > maxOf(r.Base) {
					r.Verdict, r.failsComparison = verdictWorse, true
				}
			case r.Bound == 0:
				r.Verdict = verdictInfo
			default:
				r.Verdict = r.boundVerdict()
				r.failsComparison = r.Verdict == verdictWorse
			}
			rows = append(rows, r)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return workloadRank(rows[i].Workload) < workloadRank(rows[j].Workload)
		}
		ri, oki := rank[rows[i].Metric]
		rj, okj := rank[rows[j].Metric]
		if oki != okj {
			return oki
		}
		if ri != rj {
			return ri < rj
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows
}

func (r *compareRow) boundVerdict() string {
	mb, mc := median(r.Base), median(r.Change)
	worse := mc > mb*(1+r.Bound)
	if !r.lowerIsBetter {
		worse = mc < mb*(1-r.Bound)
	}
	if math.Max(spread(r.Base), spread(r.Change)) > r.Bound {
		if r.allChangeBetter() {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worse {
		return verdictWorse
	}
	return verdictOK
}

// allChangeBetter reports whether every change run reads better than every
// base run.
func (r *compareRow) allChangeBetter() bool {
	if r.lowerIsBetter {
		return maxOf(r.Change) < minOf(r.Base)
	}
	return minOf(r.Change) > maxOf(r.Base)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / math.Abs(m)
	}
	return 0
}

// claimResult applies the paired-win rule to one metric: pairing runs in
// order, the change must win at least nine tenths of at least ten pairs
// (ties count for neither), and the medians must differ by more than the
// base's quartile spread.
type claimResult struct {
	Met         bool
	Wins, Pairs int
	Reason      string
}

func claim(base, change []float64, lowerIsBetter bool) claimResult {
	c := claimResult{Pairs: min(len(base), len(change))}
	for i := 0; i < c.Pairs; i++ {
		if (lowerIsBetter && change[i] < base[i]) || (!lowerIsBetter && change[i] > base[i]) {
			c.Wins++
		}
	}
	q1, q3 := quartiles(base)
	gap := math.Abs(median(change) - median(base))
	switch {
	case c.Pairs < 10:
		c.Reason = fmt.Sprintf("needs at least 10 pairs, have %d", c.Pairs)
	case c.Wins*10 < c.Pairs*9:
		c.Reason = fmt.Sprintf("change won %d of %d pairs, needs nine tenths", c.Wins, c.Pairs)
	case gap <= q3-q1:
		c.Reason = fmt.Sprintf("median difference %.6g is within the base's quartile spread %.6g", gap, q3-q1)
	default:
		c.Met = true
		c.Reason = fmt.Sprintf("change won %d of %d pairs", c.Wins, c.Pairs)
	}
	return c
}

// compareMain implements `bench compare [-benchmark F] [-claim M@W] BASE
// CHANGE`; it returns 1 when any metric is worse or missing, or the named
// claim is not met.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json holding the regression bounds")
	claimArg := fs.String("claim", "", "metric@workload whose improvement the change claims, checked by the paired-win rule")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-benchmark BENCHMARK.json] [-claim metric@workload] BASE CHANGE")
		fmt.Fprintln(os.Stderr, "BASE and CHANGE are -out results files or directories of them.")
		return 2
	}
	spec, err := loadBenchmarkSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	base, err := loadRuns(fs.Arg(0))
	if err == nil {
		var change runSet
		change, err = loadRuns(fs.Arg(1))
		if err == nil {
			return report(out, base, change, spec, *claimArg)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

func report(out io.Writer, base, change runSet, spec benchmarkSpec, claimArg string) int {
	status := 0
	fmt.Fprintf(out, "%-16s %-34s %3s %3s  %-36s %-36s %8s  %s\n",
		"workload", "metric", "nB", "nC", "base median [q1, q3]", "change median [q1, q3]", "change", "verdict")
	for _, r := range compareSets(base, change, spec) {
		if r.failsComparison {
			status = 1
		}
		delta := "-"
		if len(r.Base) > 0 && len(r.Change) > 0 && median(r.Base) != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(median(r.Change)/median(r.Base)-1))
		}
		verdict := r.Verdict
		if r.Bound > 0 {
			verdict += fmt.Sprintf(" (bound %.0f%%)", 100*r.Bound)
		}
		fmt.Fprintf(out, "%-16s %-34s %3d %3d  %-36s %-36s %8s  %s\n",
			r.Workload, r.Metric, len(r.Base), len(r.Change), summary(r.Base), summary(r.Change), delta, verdict)
	}
	if claimArg != "" {
		m, w, ok := strings.Cut(claimArg, "@")
		if !ok || len(base[w][m]) == 0 || len(change[w][m]) == 0 {
			fmt.Fprintf(out, "claim %s: not met: metric@workload not reported on both sides\n", claimArg)
			return 1
		}
		lower := true
		for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
			if d.Name == m {
				lower = d.Better != "higher"
			}
		}
		c := claim(base[w][m], change[w][m], lower)
		verdict := "not met"
		if c.Met {
			verdict = "met"
		} else {
			status = 1
		}
		fmt.Fprintf(out, "claim %s: %s: %s\n", claimArg, verdict, c.Reason)
	}
	return status
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", median(xs), q1, q3)
}

func unionKeys[V any](a, b map[string]V) []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range []map[string]V{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func workloadRank(name string) int {
	for i := range workloads {
		if workloads[i].name == name {
			return i
		}
	}
	return len(workloads)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}
