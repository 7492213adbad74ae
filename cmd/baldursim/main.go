// Command baldursim runs a single network simulation: one network, one
// traffic pattern, one load, and prints latency/drop statistics.
//
// Examples:
//
//	baldursim -net baldur -pattern transpose -load 0.7 -nodes 1024 -packets 10000
//	baldursim -net dragonfly -pattern random_permutation -load 0.5
//	baldursim -net baldur -workload FB -nodes 256
//	baldursim -net fattree -workload examples/workloads/mix.json -scale quick
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"baldur/internal/check"
	"baldur/internal/elecnet"
	"baldur/internal/exp"
	"baldur/internal/netsim"
	"baldur/internal/prof"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
	workloadpkg "baldur/internal/workload"
)

func main() {
	var (
		network  = flag.String("net", "baldur", "network: baldur|multibutterfly|dragonfly|fattree|ideal")
		pattern  = flag.String("pattern", "random_permutation", "traffic pattern: random_permutation|transpose|bisection|group_permutation|hotspot|ping_pong1|ping_pong2")
		workload = flag.String("workload", "", "workload instead of a pattern: an HPC trace name (AMG|BigFFT|CR|FB) or a path to a multi-tenant service workload spec (*.json)")
		load     = flag.Float64("load", 0.7, "input load (fraction of line rate)")
		scale    = flag.String("scale", "", "named size preset: "+strings.Join(exp.ScaleNames(), "|")+" (sets -nodes/-packets/-dragonfly-p/-fattree-k, which individually still override it)")
		nodes    = flag.Int("nodes", 1024, "Baldur/multi-butterfly node count (power of two)")
		packets  = flag.Int("packets", 1000, "packets per node (or ping-pong rounds / trace iterations x100)")
		dfP      = flag.Int("dragonfly-p", 4, "dragonfly parameter p (nodes = 2p^2(2p^2+1))")
		ftK      = flag.Int("fattree-k", 16, "fat-tree radix k (nodes = k^3/4)")
		seed     = flag.Uint64("seed", 1, "random seed")
		fidelity = flag.String("fidelity", "packet", "evaluation tier: packet (discrete-event simulation) or twin (analytical flow-level model inside its validity envelope: baldur, multibutterfly and ideal, the Fig 6 open-loop patterns, load <= 0.5; every other cell runs on the packet tier)")
		maxMS    = flag.Float64("max-sim-ms", 1000, "virtual-time safety horizon in milliseconds")
		shards   = flag.Int("shards", 0, "conservative-parallel shard count (0 or 1 = serial; statistics are identical for any value)")
		watchdog = flag.Float64("watchdog", 0, "trace-replay progress watchdog window in simulated microseconds (0: off)")
		audit    = flag.Bool("audit", false, "run with the invariant-audit layer armed: conservation ledgers and pool censuses are checked at every checkpoint barrier and the run fails on the first violation")
		auditIvl = flag.Float64("audit-interval-us", 0, "audit checkpoint interval in simulated microseconds (0: default)")
		maxBPN   = flag.Float64("max-bytes-per-node", 0, "fail the run if peak RSS divided by the simulated node count exceeds this many bytes (0: no gate; the CI memory smoke sets it)")
	)
	telFlags := telemetry.Flags()
	flag.Parse()
	defer prof.Start()()

	fid, err := netsim.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintln(os.Stderr, "baldursim:", err)
		os.Exit(1)
	}

	sc := exp.Scale{
		Name:           "cli",
		Nodes:          *nodes,
		PacketsPerNode: *packets,
		DragonflyP:     *dfP,
		FatTreeK:       *ftK,
		TraceIters:     (*packets + 99) / 100,
		Seed:           *seed,
		MaxSimTime:     sim.Duration(*maxMS * 1e9),
		Fidelity:       fid,
		Shards:         *shards,
		Telemetry:      telFlags(),
		Watchdog:       sim.Microseconds(*watchdog),
	}
	if *scale != "" {
		preset, ok := exp.ScaleByName(*scale)
		if !ok {
			fmt.Fprintf(os.Stderr, "baldursim: unknown -scale %q (have %s)\n",
				*scale, strings.Join(exp.ScaleNames(), ", "))
			os.Exit(1)
		}
		// The preset supplies the sizing; explicitly-passed size flags
		// still win so presets can be nudged from the command line.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		sc.Name = preset.Name
		if !set["nodes"] {
			sc.Nodes = preset.Nodes
		}
		if !set["packets"] {
			sc.PacketsPerNode = preset.PacketsPerNode
			sc.TraceIters = preset.TraceIters
		}
		if !set["dragonfly-p"] {
			sc.DragonflyP = preset.DragonflyP
		}
		if !set["fattree-k"] {
			sc.FatTreeK = preset.FatTreeK
		}
	}
	if *audit {
		sc.Audit = &check.Options{Interval: sim.Microseconds(*auditIvl)}
	}

	if strings.HasSuffix(*workload, ".json") {
		runServiceWorkload(*network, *workload, sc)
		return
	}

	var p exp.Point
	switch {
	case *workload != "":
		p, err = exp.RunTrace(*network, *workload, sc)
	case *pattern == "ping_pong1" || *pattern == "ping_pong2":
		p, err = exp.RunPingPong(*network, *pattern, sc)
	default:
		p, err = exp.RunOpenLoop(*network, *pattern, *load, sc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "baldursim:", err)
		os.Exit(1)
	}
	what := *pattern
	if *workload != "" {
		what = *workload
	}
	fmt.Printf("network=%s workload=%s load=%.2f nodes=%d packets/node=%d\n",
		*network, what, *load, sc.Nodes, sc.PacketsPerNode)
	fmt.Printf("avg latency:  %10.1f ns\n", p.AvgNS)
	fmt.Printf("p99 latency:  %10.1f ns\n", p.TailNS)
	fmt.Printf("drop rate:    %10.3f %%\n", p.DropRate*100)
	fmt.Printf("events:       %10d\n", p.Events)
	if peak := prof.PeakRSSBytes(); peak > 0 {
		n := simulatedNodes(*network, sc)
		bpn := float64(peak) / float64(n)
		fmt.Printf("peak rss:     %10.1f MiB  (%.0f B across %d nodes = %.0f B/node)\n",
			float64(peak)/(1<<20), float64(peak), n, bpn)
		if *maxBPN > 0 && bpn > *maxBPN {
			fmt.Fprintf(os.Stderr, "baldursim: peak RSS %.0f B/node exceeds the -max-bytes-per-node budget %.0f\n", bpn, *maxBPN)
			os.Exit(1)
		}
	} else if *maxBPN > 0 {
		fmt.Fprintln(os.Stderr, "baldursim: -max-bytes-per-node set but peak RSS is unavailable on this platform")
		os.Exit(1)
	}
	if !p.Finished {
		fmt.Println("warning: run hit the virtual-time safety horizon before draining")
	}
}

// runServiceWorkload runs a multi-tenant service workload spec file and
// prints the per-tenant SLO table (use -net to pick the fabric under test).
func runServiceWorkload(network, specPath string, sc exp.Scale) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "baldursim:", err)
		os.Exit(1)
	}
	spec, err := workloadpkg.ParseSpec(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "baldursim:", err)
		os.Exit(1)
	}
	rep, err := exp.RunWorkload(network, spec, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "baldursim:", err)
		os.Exit(1)
	}
	fmt.Printf("network=%s workload=%s tenants=%d\n", rep.Network, rep.Workload, len(rep.Tenants))
	fmt.Printf("flows: arrived=%d admitted=%d rejected=%d  packets: injected=%d delivered=%d  incomplete_flows=%d\n",
		rep.Arrived, rep.Admitted, rep.Rejected, rep.Injected, rep.Delivered, rep.IncompleteFlows)
	fmt.Print(rep.Table())
	if !rep.Finished {
		fmt.Println("warning: run hit the virtual-time safety horizon before draining")
	}
}

// simulatedNodes returns the node count of the network actually built —
// the denominator of the bytes-per-node report. Topology constraints mean
// the per-network counts differ slightly at the same Scale (e.g. fat-tree
// k=80 hosts 128,000 while Baldur runs 131,072).
func simulatedNodes(network string, sc exp.Scale) int {
	switch network {
	case "fattree":
		return elecnet.FatTreeNodes(sc.FatTreeK)
	case "dragonfly":
		return elecnet.DragonflyNodes(sc.DragonflyP)
	}
	return sc.Nodes
}
