// Command tracegen generates a Design-Forward-style HPC communication trace
// in the portable text format, or replays a trace file on a chosen network.
//
//	tracegen -workload AMG -nodes 64 > amg64.trace
//	tracegen -replay amg64.trace -net baldur
//	tracegen -replay amg64.trace -net dragonfly -dragonfly-p 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"baldur/internal/check"
	"baldur/internal/check/harness"
	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// run parses args and generates a trace to stdout, or replays one and
// reports on stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	var (
		workload = fs.String("workload", "AMG", "workload to generate: AMG|BigFFT|CR|FB")
		nodes    = fs.Int("nodes", 64, "rank count")
		iters    = fs.Int("iterations", 2, "communication rounds")
		msg      = fs.Int("message-bytes", 0, "override per-message size")
		seed     = fs.Uint64("seed", 1, "random seed")
		replay   = fs.String("replay", "", "replay this trace file instead of generating")
		network  = fs.String("net", "baldur", "replay target: baldur|multibutterfly|dragonfly|fattree|ideal")
		dfP      = fs.Int("dragonfly-p", 2, "dragonfly parameter p for -replay")
		ftK      = fs.Int("fattree-k", 8, "fat-tree radix for -replay")
	)
	fs.Parse(args)

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		defer f.Close()
		w, err := trace.Read(f)
		if err != nil {
			return err
		}
		net, err := buildNet(*network, len(w.Programs), *dfP, *ftK, *seed)
		if err != nil {
			return err
		}
		var col netsim.Collector
		col.Attach(net)
		rep, err := trace.NewReplayer(net, w)
		if err != nil {
			return err
		}
		st := rep.Run()
		fmt.Fprintf(stdout, "workload=%s ranks=%d network=%s\n", w.Name, len(w.Programs), *network)
		fmt.Fprintf(stdout, "completed=%v makespan=%v packets=%d\n", st.Completed, st.Makespan, st.Packets)
		fmt.Fprintf(stdout, "avg latency %.1f ns, p99 %.1f ns\n", col.AvgNS(), col.TailNS())
		return nil
	}

	// Refuse a rank count the format cannot hold before building the
	// workload, which at 2^20 ranks and beyond takes hundreds of MB.
	if err := trace.CheckRanks(*nodes); err != nil {
		return err
	}
	w := trace.ByName(*workload, *nodes, trace.Options{
		Iterations:   *iters,
		MessageBytes: *msg,
		Seed:         *seed,
	})
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %v)", *workload, trace.Names())
	}
	return w.Save(stdout)
}

// buildNet sizes the named network for ranks (growing the node count,
// fat-tree k or dragonfly p from the flags until every rank has a node) and
// builds it through harness.Build.
func buildNet(name string, ranks, dfP, ftK int, seed uint64) (netsim.Network, error) {
	cfg := check.FuzzConfig{Net: name, NodesExp: 2, DragonflyP: dfP, FatTreeK: ftK, FaultStage: -1, Seed: seed}
	for 1<<cfg.NodesExp < ranks {
		cfg.NodesExp++
	}
	for elecnet.FatTreeNodes(cfg.FatTreeK) < ranks {
		cfg.FatTreeK += 2
	}
	for elecnet.DragonflyNodes(cfg.DragonflyP) < ranks {
		cfg.DragonflyP++
	}
	net, _, err := harness.Build(cfg, 0)
	return net, err
}
