// Command twincal checks the analytical twin against the packet engine.
//
// It runs every cell of the twin's validity envelope (internal/twin's
// InEnvelope: the modelled networks, the Fig 6 patterns, load up to
// MaxLoad) under both fidelity tiers at quick and medium scale, prints each
// cell's relative error on mean latency, p99 latency and throughput, and
// exits 1 if any cell's error passes its floor or the tiers disagree on
// whether the run finished:
//
//	twincal
package main

import (
	"flag"
	"fmt"
	"os"

	"baldur/internal/check/calib"
	"baldur/internal/exp"
)

func main() {
	seed := flag.Uint64("seed", 1, "random seed (both tiers)")
	flag.Parse()

	failed := false
	for _, sc := range []exp.Scale{exp.Quick, exp.Medium} {
		sc.Seed = *seed
		rep, err := calib.Run(sc, calib.FullGrid())
		if err != nil {
			fmt.Fprintln(os.Stderr, "twincal:", err)
			os.Exit(1)
		}
		fmt.Printf("twincal %s: %d cells, packet %.0f ms, twin %.1f ms, speedup %.0fx\n",
			sc.Name, len(rep.Cells), rep.PacketWallMS, rep.TwinWallMS, rep.SpeedupX)
		if err := calib.Check(rep, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "twincal %s: %v\n", sc.Name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("twincal: every envelope cell is within the floors at quick and medium scale")
}
