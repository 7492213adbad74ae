// Command bench is the simulator's host-time benchmark. It drives four
// workloads through the layers' public functions and reports end-to-end
// metrics (wall time, set-up time, simulated packets per second, peak RSS
// per node) from untraced passes, per-layer metrics from traced passes, and
// checks every cell's output against committed fingerprints and the
// simulator's invariants.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -seed 1 -out results.json          # every workload
//	bash bench/run.sh -workload pingpong_mid -seed 2 -seconds 20 -trace 0
//	bash bench/run.sh compare base/ change/              # regression report
//	bash bench/run.sh -write-golden bench/golden/seed1.json
//
// The last line of output is one JSON object with the fields correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		name     = fs.String("workload", "all", "workload to run: all, fig6_medium, pingpong_mid, datacenter_128k or fault_campaign")
		seed     = fs.Uint64("seed", 1, "workload seed; seed 1 is also checked against golden fingerprints")
		seconds  = fs.Float64("seconds", 30, "measuring time per workload, in seconds")
		trace    = fs.Int("trace", 1, "1: alternate traced passes, report per-layer metrics and write Chrome traces; 0: untraced passes only")
		traceDir = fs.String("trace-out", ".bench_build/traces", "directory for the Chrome-trace files, one per workload")
		out      = fs.String("out", "", "write every run's metrics and verdict as JSON to this file")
		golden   = fs.String("write-golden", "", "run each workload once with seed 1 and write its fingerprints to this file")
		child    = fs.Bool("child", false, "run one pass and print it as JSON (used by the benchmark itself)")
	)
	fs.Parse(os.Args[1:])
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}

	var selected []*workloadDef
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w, ok := workloadByName(*name); ok {
		selected = append(selected, w)
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	switch {
	case *child:
		if len(selected) != 1 {
			fatal(fmt.Errorf("-child needs one -workload"))
		}
		if err := childMain(selected[0], *seed, *trace == 1, *traceDir); err != nil {
			fatal(err)
		}
	case *golden != "":
		if err := goldenMain(selected, *golden); err != nil {
			fatal(err)
		}
	default:
		if !benchMain(selected, *seed, *seconds, *trace == 1, *traceDir, *out) {
			os.Exit(1)
		}
	}
}

// benchMain runs the selected workloads one after another and reports
// whether every cell was correct.
func benchMain(selected []*workloadDef, seed uint64, seconds float64, trace bool, traceDir, out string) bool {
	gs, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	budget := time.Duration(seconds * float64(time.Second))
	var runs []runResult
	for _, w := range selected {
		var golden map[string]json.RawMessage
		if seed == goldenSeed {
			// A missing workload makes every cell fail its golden check.
			golden = gs[w.name]
			if golden == nil {
				golden = map[string]json.RawMessage{}
			}
		}
		cal := calibrate(500 * time.Millisecond)
		r := runWorkload(w, seed, budget, trace, traceDir, cal, golden)
		printRun(os.Stdout, w, &r)
		runs = append(runs, r)
	}
	if trace {
		fmt.Printf("traces: %s/<workload>.json (open in https://ui.perfetto.dev)\n", traceDir)
	}
	if out != "" {
		data, err := json.MarshalIndent(resultsFile{Runs: runs}, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(fmt.Errorf("writing %s: %w", out, err))
		}
	}
	line := summaryLine(runs)
	data, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	return line.Correct
}

// resultsFile is the -out format that compare reads.
type resultsFile struct {
	Runs []runResult `json:"runs"`
}

// goldenMain runs one untraced seed-1 pass of each selected workload and
// writes the cells' fingerprints, refusing if any invariant fails.
func goldenMain(selected []*workloadDef, path string) error {
	gs, err := loadGolden()
	if err != nil {
		gs = goldenSet{}
	}
	for _, w := range selected {
		p, err := childPass(w, goldenSeed, false, "")
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		v := verify(w.cells(goldenSeed, false), []passResult{p}, nil)
		if v.Failed > 0 {
			return fmt.Errorf("%s: %d of %d cells failed; first: %s", w.name, v.Failed, v.Attempted, v.Failures[0])
		}
		fps := make(map[string]json.RawMessage, len(p.Cells))
		for _, c := range p.Cells {
			fps[c.ID] = c.FP
		}
		gs[w.name] = fps
		fmt.Printf("%s: %d cells\n", w.name, len(fps))
	}
	return writeGolden(path, gs)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
