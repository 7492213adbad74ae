// Command figures regenerates the paper's tables and figures.
//
//	figures -exp table4                 # TL gate characteristics
//	figures -exp table5                 # multiplicity vs drop rate
//	figures -exp fig6 -scale full       # latency vs load, all patterns
//	figures -exp fig7                   # hotspot / ping-pong / HPC workloads
//	figures -exp fig8|fig9|fig10        # power, sensitivity, cost
//	figures -exp dropmodel|packaging|awgr|reliability
//	figures -exp all                    # everything (quick scale)
//	figures -exp fig6 -csv              # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"baldur/internal/exp"
	"baldur/internal/netsim"
	"baldur/internal/prof"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

func main() {
	var (
		which    = flag.String("exp", "all", "experiment: table4|table5|fig6|fig7|fig8|fig9|fig10|dropmodel|packaging|awgr|reliability|ablation|profile|all")
		scale    = flag.String("scale", "quick", "scale: "+strings.Join(exp.ScaleNames(), "|"))
		csv      = flag.Bool("csv", false, "emit CSV instead of tables (fig6/fig7 only)")
		out      = flag.String("out", "", "also write each experiment's output to <dir>/<exp>.txt")
		seed     = flag.Uint64("seed", 1, "random seed")
		fidelity = flag.String("fidelity", "packet", "evaluation tier: packet (discrete-event simulation) or twin (analytical flow-level model inside its validity envelope: baldur, multibutterfly and ideal, the Fig 6 open-loop patterns, load <= 0.5; every other cell runs on the packet tier)")
		shards   = flag.Int("shards", -1, "conservative-parallel shards per simulation (-1: auto — GOMAXPROCS at full scale, serial otherwise; statistics are identical for any value)")
		watchdog = flag.Float64("watchdog", 0, "trace-replay progress watchdog window in simulated microseconds (0: off)")
	)
	telFlags := telemetry.Flags()
	flag.Parse()
	defer prof.Start()()

	sc, ok := exp.ScaleByName(*scale)
	if !ok {
		fatal(fmt.Errorf("unknown scale %q (have %s)", *scale, strings.Join(exp.ScaleNames(), ", ")))
	}
	sc.Seed = *seed
	fid, err := netsim.ParseFidelity(*fidelity)
	if err != nil {
		fatal(err)
	}
	sc.Fidelity = fid
	sc.Telemetry = telFlags()
	sc.TelemetryPerCell = true
	sc.Watchdog = sim.Microseconds(*watchdog)
	switch {
	case *shards >= 0:
		sc.Shards = *shards
	case *scale == "full" || *scale == "mid" || *scale == "datacenter":
		// Large-scale runs are minutes of CPU per cell: spread each
		// simulation across the machine by default. The results are
		// bit-identical to a serial run. (At mid/datacenter scale the
		// fan-out runners are already capped at 1-2 concurrent cells by
		// Scale.MaxParallel, so intra-cell shards are the parallelism.)
		sc.Shards = runtime.GOMAXPROCS(0)
	}

	emit := func(name, content string) {
		fmt.Print(content)
		if !strings.HasSuffix(content, "\n") {
			fmt.Println()
		}
		if *out == "" {
			return
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, name+".txt")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	run := func(name string) {
		switch name {
		case "table4":
			emit(name, "Table IV — TL gate device-level results\n"+exp.Table4())
		case "table5":
			rows, err := exp.Table5(sc)
			fatalIf(err)
			emit(name, "Table V — path multiplicity (transpose, load 0.7)\n"+exp.RenderTable5(rows))
		case "fig6":
			res, err := exp.Fig6(sc, nil, nil, nil)
			fatalIf(err)
			var b strings.Builder
			for _, r := range res {
				if *csv {
					b.WriteString(fig6CSV(r))
				} else {
					b.WriteString(exp.RenderFig6(r))
					b.WriteByte('\n')
				}
			}
			emit(name, b.String())
		case "fig7":
			rows, err := exp.Fig7(sc, nil)
			fatalIf(err)
			if *csv {
				emit(name, fig7CSV(rows))
			} else {
				emit(name, exp.RenderFig7(rows, nil))
			}
		case "fig8":
			emit(name, exp.RenderFig8())
		case "fig9":
			emit(name, exp.RenderFig9())
		case "fig10":
			emit(name, exp.RenderFig10())
		case "dropmodel":
			txt, err := exp.RenderDropModel(nil, sc.Seed)
			fatalIf(err)
			emit(name, txt)
		case "packaging":
			emit(name, exp.RenderPackaging())
		case "awgr":
			emit(name, exp.RenderAWGR())
		case "reliability":
			emit(name, exp.RenderReliability(200_000, sc.Seed))
		case "profile":
			var profiles []exp.LatencyProfile
			for _, net := range exp.NetworkNames {
				pr, err := exp.Profile(net, "random_permutation", 0.7, sc)
				fatalIf(err)
				profiles = append(profiles, pr)
			}
			emit(name, exp.RenderProfiles(profiles))
		case "ablation":
			rows, err := exp.Ablations(sc)
			fatalIf(err)
			emit(name, exp.RenderAblations(rows))
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
	}

	if *which == "all" {
		for _, name := range []string{
			"table4", "table5", "fig6", "fig7", "fig8", "fig9", "fig10",
			"dropmodel", "packaging", "awgr", "reliability", "ablation", "profile",
		} {
			fmt.Printf("==== %s ====\n", name)
			run(name)
			fmt.Println()
		}
		return
	}
	run(*which)
}

func fig6CSV(r exp.Fig6Result) string {
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			r.Pattern, p.Network,
			fmt.Sprintf("%.2f", p.Load),
			fmt.Sprintf("%.1f", p.AvgNS),
			fmt.Sprintf("%.1f", p.TailNS),
			fmt.Sprintf("%.5f", p.DropRate),
		})
	}
	return exp.CSV([]string{"pattern", "network", "load", "avg_ns", "p99_ns", "drop_rate"}, rows)
}

func fig7CSV(rows []exp.Fig7Row) string {
	var out [][]string
	for _, r := range rows {
		// Walk the per-network maps in sorted order: map iteration order
		// would otherwise shuffle CSV rows from run to run.
		for _, net := range exp.SortedNetworks(r.Avg) {
			out = append(out, []string{
				r.Workload, net,
				fmt.Sprintf("%.1f", r.Avg[net]),
				fmt.Sprintf("%.1f", r.Tail[net]),
			})
		}
	}
	return exp.CSV([]string{"workload", "network", "avg_ns", "p99_ns"}, out)
}

func fatalIf(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	flag.Usage()
	os.Exit(1)
}
