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
	"os"

	"baldur/internal/check"
	"baldur/internal/check/harness"
	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "AMG", "workload to generate: AMG|BigFFT|CR|FB")
		nodes    = flag.Int("nodes", 64, "rank count")
		iters    = flag.Int("iterations", 2, "communication rounds")
		msg      = flag.Int("message-bytes", 0, "override per-message size")
		seed     = flag.Uint64("seed", 1, "random seed")
		replay   = flag.String("replay", "", "replay this trace file instead of generating")
		network  = flag.String("net", "baldur", "replay target: baldur|multibutterfly|dragonfly|fattree|ideal")
		dfP      = flag.Int("dragonfly-p", 2, "dragonfly parameter p for -replay")
		ftK      = flag.Int("fattree-k", 8, "fat-tree radix for -replay")
	)
	flag.Parse()

	if *replay != "" {
		f, err := os.Open(*replay)
		fatalIf(err)
		defer f.Close()
		w, err := trace.Read(f)
		fatalIf(err)
		net, err := buildNet(*network, len(w.Programs), *dfP, *ftK, *seed)
		fatalIf(err)
		var col netsim.Collector
		col.Attach(net)
		rep, err := trace.NewReplayer(net, w)
		fatalIf(err)
		st := rep.Run()
		fmt.Printf("workload=%s ranks=%d network=%s\n", w.Name, len(w.Programs), *network)
		fmt.Printf("completed=%v makespan=%v packets=%d\n", st.Completed, st.Makespan, st.Packets)
		fmt.Printf("avg latency %.1f ns, p99 %.1f ns\n", col.AvgNS(), col.TailNS())
		return
	}

	w := trace.ByName(*workload, *nodes, trace.Options{
		Iterations:   *iters,
		MessageBytes: *msg,
		Seed:         *seed,
	})
	if w == nil {
		fatalIf(fmt.Errorf("unknown workload %q (want one of %v)", *workload, trace.Names()))
	}
	fatalIf(w.Save(os.Stdout))
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

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
