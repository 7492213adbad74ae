package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// runResult is one workload run: its correctness verdict and its metrics.
type runResult struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Checks       string             `json:"checks"`
	Failures     []string           `json:"failures,omitempty"`
	Passes       int                `json:"passes"`
	TracedPasses int                `json:"traced_passes"`
	Calibration  calibration        `json:"calibration"`
	Metrics      map[string]metric  `json:"metrics"`
	SelfS        map[string]float64 `json:"self_s,omitempty"`
}

// runWorkload runs passes until the next one could end after budget,
// judged by the slowest pass so far. With trace set, passes alternate
// untraced and traced: end-to-end metrics come from the untraced ones,
// per-layer metrics from the traced ones, and the difference is the
// tracing overhead.
func runWorkload(w *workloadDef, seed uint64, budget time.Duration, trace bool, traceDir string, cal calibration, golden map[string]json.RawMessage) runResult {
	var passes []passResult
	var slowest time.Duration
	deadline := time.Now().Add(budget)
	need := 1
	if trace {
		need = 2
	}
	for {
		traced := trace && len(passes)%2 == 1
		t0 := time.Now()
		p, err := childPass(w, seed, traced, traceDir)
		slowest = max(slowest, time.Since(t0))
		if err != nil {
			p = passResult{Workload: w.name, Seed: seed, Traced: traced, Err: err.Error()}
		}
		passes = append(passes, p)
		if len(passes) >= need && time.Now().Add(slowest).After(deadline) {
			break
		}
	}
	return summarize(w, seed, trace, cal, golden, passes)
}

// summarize verifies the passes and folds them into the run's metrics.
func summarize(w *workloadDef, seed uint64, trace bool, cal calibration, golden map[string]json.RawMessage, passes []passResult) runResult {
	v := verify(w.cells(seed, false), passes, golden)
	r := runResult{
		Workload: w.name, Seed: seed, Trace: trace,
		Correct: v.Failed == 0, Attempted: v.Attempted, Failed: v.Failed,
		Checks: v.Checks, Failures: v.Failures,
		Passes: len(passes), Calibration: cal,
	}
	var untraced, traced []passResult
	for _, p := range passes {
		switch {
		case p.Err != "":
		case p.Traced:
			traced = append(traced, p)
		default:
			untraced = append(untraced, p)
		}
	}
	r.TracedPasses = len(traced)
	r.Metrics = endToEnd(untraced)
	if trace {
		for name, m := range perLayer(passes, cal) {
			r.Metrics[name] = m
		}
		r.SelfS = make(map[string]float64)
		for _, p := range traced {
			for name, s := range p.SelfS {
				r.SelfS[name] += s / float64(len(traced))
			}
		}
	}
	r.Metrics["fail_frac"] = metric{Value: ratio(float64(r.Failed), float64(r.Attempted)), Unit: "ratio"}
	return r
}

// childPass runs one pass in a fresh process of this binary, so each pass
// has its own peak RSS and no garbage-collector state carried over.
func childPass(w *workloadDef, seed uint64, traced bool, traceDir string) (passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-trace", boolArg(traced), "-trace-out", traceDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return passResult{}, fmt.Errorf("pass process: %w", err)
	}
	var p passResult
	if err := json.Unmarshal(out.Bytes(), &p); err != nil {
		return passResult{}, fmt.Errorf("pass process output: %w", err)
	}
	return p, nil
}

func boolArg(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// childMain runs one pass and writes it as JSON to stdout; a traced pass
// also writes its spans as a Chrome trace into traceDir.
func childMain(w *workloadDef, seed uint64, traced bool, traceDir string) error {
	p, tr := runPass(w, seed, false, traced)
	if traced {
		if err := tr.writeChrome(filepath.Join(traceDir, w.name+".json"), p.Cells); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(p)
}

// printRun writes a run's metrics, one per line with its unit, and its
// verdict.
func printRun(out io.Writer, w *workloadDef, r *runResult) {
	fmt.Fprintf(out, "== %s  seed %d  passes %d (%d traced)\n", r.Workload, r.Seed, r.Passes, r.TracedPasses)
	fmt.Fprintf(out, "   why: %s\n", w.why)
	fmt.Fprintf(out, "   checks: %s: %d of %d cells failed\n", r.Checks, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "   FAIL %s\n", f)
	}
	defs := append(append(append([]metricDef(nil), endToEndDefs...), metricDef{Name: "fail_frac"}), hostDefs...)
	if r.Trace {
		defs = append(defs, perLayerDefs...)
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(out, "   %-44s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	if len(r.SelfS) > 0 {
		fmt.Fprintln(out, "   self time per traced pass, by span:")
		names := make([]string, 0, len(r.SelfS))
		for n := range r.SelfS {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return r.SelfS[names[i]] > r.SelfS[names[j]] })
		for _, n := range names {
			fmt.Fprintf(out, "     %-42s %12.6f s\n", n, r.SelfS[n])
		}
	}
}

// resultLine is the summary object printed as the last line of output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// summaryLine keeps the declared metrics of the mode: end-to-end ones
// untraced, per-layer ones traced. With several workloads, names take the
// workload as a prefix.
func summaryLine(runs []runResult) resultLine {
	l := resultLine{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range runs {
		l.Correct = l.Correct && r.Correct
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		defs := endToEndDefs
		if r.Trace {
			defs = perLayerDefs
		}
		for _, d := range defs {
			name := d.Name
			if len(runs) > 1 {
				name = r.Workload + "." + name
			}
			l.Metrics[name] = r.Metrics[d.Name]
		}
	}
	return l
}
