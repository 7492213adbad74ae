// Command twincal calibrates the analytical twin against the packet engine.
//
// It runs the pinned (network, pattern, load) grid of every network the twin
// models under both fidelity tiers, records the twin's per-cell relative
// error on mean latency, p99 latency, and throughput, and either writes a
// fresh baseline or gates against a committed one:
//
//	twincal -out BENCH_twin.json   # regenerate the baseline
//	twincal -check BENCH_twin.json # drift gate (exit 1 on drift)
package main

import (
	"flag"
	"fmt"
	"os"

	"baldur/internal/check/calib"
	"baldur/internal/exp"
)

func main() {
	var (
		out     = flag.String("out", "BENCH_twin.json", "write the calibration report (with stamped bounds) to this file")
		checkAt = flag.String("check", "", "compare against this committed baseline instead of writing; exit 1 when any cell drifts beyond its bound")
		scale   = flag.String("scale", "quick", "scale: quick|medium|full")
		seed    = flag.Uint64("seed", 1, "random seed (both tiers)")
	)
	flag.Parse()

	var sc exp.Scale
	switch *scale {
	case "quick":
		sc = exp.Quick
	case "medium":
		sc = exp.Medium
	case "full":
		sc = exp.Full
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	sc.Seed = *seed

	rep, err := calib.Run(sc, calib.FullGrid())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("twincal: %d cells, packet %.0f ms, twin %.1f ms, speedup %.0fx\n",
		len(rep.Cells), rep.PacketWallMS, rep.TwinWallMS, rep.SpeedupX)

	if *checkAt != "" {
		baseline, err := calib.Load(*checkAt)
		if err != nil {
			fatal(err)
		}
		if err := calib.Check(rep, baseline, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println("twincal: all cells within committed error bounds")
		return
	}

	rep.StampBounds()
	if err := rep.Write(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("twincal: wrote %s\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "twincal:", err)
	os.Exit(1)
}
