package exp

import (
	"reflect"
	"testing"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/trace"
)

// goldPoint pins the exact statistics a seeded Quick-scale run must
// reproduce. The values were captured from the reference implementation and
// must match bit-for-bit: the event engine guarantees that a given seed
// yields one execution order (FIFO among equal-time events, preserved
// through event pooling and heap layout changes), so any drift here means a
// scheduling or model change, not noise.
type goldPoint struct {
	network string
	avgNS   float64
	tailNS  float64
	drop    float64
}

var goldTranspose07 = []goldPoint{
	{"baldur", 612.4728853571429, 1570.1282249416706, 0},
	{"multibutterfly", 1148.0589421428567, 1933.0545923721088, 0},
	{"dragonfly", 2807.1637208928569, 8480.8902561085633, 0},
	{"fattree", 1151.1560279999999, 2435.4961715255727, 0},
	{"ideal", 200, 200.85352906156825, 0},
}

var goldRandomPerm05 = []goldPoint{
	{"baldur", 469.27747734374992, 966.5272961860544, 0.00046823786483533636},
	{"multibutterfly", 1038.2838274999986, 1464.9814348137045, 0},
	{"dragonfly", 1359.2356984722221, 5859.9257392548179, 0},
	{"fattree", 1060.1672499999997, 1803.6037091249129, 0},
	{"ideal", 200, 200.85352906156825, 0},
}

// goldTrace pins the Fig 7 HPC trace anchors at Quick scale. avg and tail
// were captured from the trace replayer's own slicing loop, before replay
// ran as a cell through netsim.Drive; drop is the cell's DropRate.
var goldTrace = map[string][]goldPoint{
	"AMG": {
		{"baldur", 3048.6507725694441, 8097.9068547309253, 0.0014386419220256078},
		{"multibutterfly", 3481.6605324074076, 7912.9504065523361, 0},
		{"dragonfly", 3855.1849074074071, 9741.9846861022907, 0},
		{"fattree", 3596.0709686609684, 9089.5931151797831, 0},
		{"ideal", 200, 200.85352906156825, 0},
	},
	"FB": {
		{"baldur", 1638.1683559782591, 6280.5128997666825, 0.21218274111675126},
		{"multibutterfly", 2405.8283695652181, 9519.477448358617, 0},
		{"dragonfly", 4298.4063541666665, 15464.43673897687, 0},
		{"fattree", 4730.8888505747154, 15464.43673897687, 0},
		{"ideal", 200, 200.85352906156825, 0},
	},
}

// goldTable5 pins Table V at Quick scale, seed 1: the gate-count and
// switch-latency models are the paper's published columns, and the measured
// drop rates (transpose @0.7, retransmission off) are the packet engine's.
var goldTable5 = []struct {
	gates     int
	latencyNS float64
	dropPct   float64
}{
	{64, 0.14000000000000001, 47.678571428571431},
	{300, 0.48999999999999999, 4.9285714285714288},
	{642, 0.93999999999999995, 0.3392857142857143},
	{1112, 1.5, 0},
	{1710, 2.25, 0},
}

// ablationScale is the scale the ablation tests run at: the wiring
// ablation needs 256 nodes for the regular butterfly's transpose
// congestion to show (sqrt(N) flows per switch must exceed the
// multiplicity).
func ablationScale() Scale {
	sc := Quick
	sc.Nodes = 256
	sc.PacketsPerNode = 60
	return sc
}

func withShards(sc Scale, k int) Scale {
	sc.Shards = k
	return sc
}

// sameRows runs a row-producing experiment at ref and at sc and requires
// identical rows: sharding and auditing change wall time, never answers.
func sameRows[R any](t *testing.T, name string, run func(Scale) ([]R, error), ref, sc Scale) {
	t.Helper()
	want, err := run(ref)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := run(sc)
	if err != nil {
		t.Fatalf("%s shards=%d audited=%t: %v", name, sc.Shards, sc.Audit != nil, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s shards=%d audited=%t diverged:\n got %+v\nwant %+v", name, sc.Shards, sc.Audit != nil, got, want)
	}
}

func checkGold(t *testing.T, label string, p Point, g goldPoint) {
	t.Helper()
	if p.AvgNS != g.avgNS || p.TailNS != g.tailNS || p.DropRate != g.drop {
		t.Errorf("%s %s: got avg=%.17g tail=%.17g drop=%.17g, want avg=%.17g tail=%.17g drop=%.17g",
			label, g.network, p.AvgNS, p.TailNS, p.DropRate, g.avgNS, g.tailNS, g.drop)
	}
	if p.Events == 0 {
		t.Errorf("%s %s: Events not recorded", label, g.network)
	}
}

// TestSeededReplayGolden re-runs seeded Quick-scale experiments on every
// network and requires bit-identical statistics. The drained transpose runs
// also check each network's ledger: every injected packet is delivered,
// abandoned or dropped, and the network's delivered count is the
// collector's.
func TestSeededReplayGolden(t *testing.T) {
	for _, g := range goldTranspose07 {
		var col netsim.Collector
		d, net, err := runOpenLoopCell(&col, g.network, "transpose", 0.7, Quick)
		if err != nil {
			t.Fatal(err)
		}
		checkGold(t, "transpose@0.7", d.Point, g)
		l := net.Ledger()
		if !d.Finished || l.Injected == 0 {
			t.Fatalf("%s: run did not drain or injected nothing: %+v", g.network, l)
		}
		if l.Injected != l.Delivered+l.GaveUp+l.Dropped {
			t.Errorf("%s: injected %d != delivered %d + gave up %d + dropped %d",
				g.network, l.Injected, l.Delivered, l.GaveUp, l.Dropped)
		}
		if l.Delivered != col.Delivered() {
			t.Errorf("%s: ledger delivered %d != collector %d", g.network, l.Delivered, col.Delivered())
		}
	}
	for _, g := range goldRandomPerm05 {
		p, err := RunOpenLoop(g.network, "random_permutation", 0.5, Quick)
		if err != nil {
			t.Fatal(err)
		}
		checkGold(t, "random_permutation@0.5", p, g)
	}
	p, err := RunPingPong("baldur", "ping_pong1", Quick)
	if err != nil {
		t.Fatal(err)
	}
	checkGold(t, "ping_pong1", p, goldPoint{"baldur", 373.13999999999987, 374.80593816208005, 0})
	rows, err := Table5(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(goldTable5) {
		t.Fatalf("table5: %d rows, want %d", len(rows), len(goldTable5))
	}
	for i, g := range goldTable5 {
		r := rows[i]
		if r.Multiplicity != i+1 || r.Gates != g.gates || r.LatencyNS != g.latencyNS || r.DropRatePct != g.dropPct {
			t.Errorf("table5 m=%d: got gates=%d latency=%.17g drop=%.17g, want gates=%d latency=%.17g drop=%.17g",
				i+1, r.Gates, r.LatencyNS, r.DropRatePct, g.gates, g.latencyNS, g.dropPct)
		}
	}
	for _, wl := range []string{"AMG", "FB"} {
		for _, g := range goldTrace[wl] {
			p, err := RunTrace(g.network, wl, Quick)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Finished {
				t.Errorf("%s %s: replay did not finish", wl, g.network)
			}
			checkGold(t, wl, p, g)
		}
	}
}

// TestShardCountInvariant is the end-to-end determinism guarantee of the
// sharded engine: a full experiment cell — network construction, open-loop
// traffic, collector statistics, drop accounting, event counts — produces
// bit-identical Points for every shard count, on Baldur and on an
// electrical baseline, across seeds.
func TestShardCountInvariant(t *testing.T) {
	for _, network := range []string{"baldur", "dragonfly"} {
		for _, seed := range []uint64{1, 5, 23} {
			sc := Quick
			sc.Seed = seed
			ref, err := RunOpenLoop(network, "random_permutation", 0.7, sc)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Events == 0 || !ref.Finished {
				t.Fatalf("%s seed %d: serial run empty or unfinished: %+v", network, seed, ref)
			}
			for _, k := range []int{2, 4, 8} {
				scK := sc
				scK.Shards = k
				got, err := RunOpenLoop(network, "random_permutation", 0.7, scK)
				if err != nil {
					t.Fatal(err)
				}
				if got != ref {
					t.Errorf("%s seed %d shards=%d diverged:\n got %+v\nwant %+v", network, seed, k, got, ref)
				}
			}
		}
	}
	// Table V and the ablations build their own network variants; they
	// shard through the same cell path.
	sameRows(t, "table5", Table5, Quick, withShards(Quick, 2))
	sameRows(t, "ablations", Ablations, ablationScale(), withShards(ablationScale(), 2))
	// The remaining electrical baselines get one lighter check each.
	for _, network := range []string{"multibutterfly", "fattree"} {
		ref, err := RunOpenLoop(network, "transpose", 0.5, Quick)
		if err != nil {
			t.Fatal(err)
		}
		sc := Quick
		sc.Shards = 2
		got, err := RunOpenLoop(network, "transpose", 0.5, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("%s shards=2 diverged:\n got %+v\nwant %+v", network, got, ref)
		}
	}
	// A 1,024-host fat-tree's epochs straddle the sharded engine's inline
	// threshold (about 4K events per epoch), so its K=2 run dispatches some
	// epochs inline and the rest on worker goroutines. Under -race every
	// multi-shard epoch is parallel and only single-shard ones are inline.
	sc := Quick
	sc.FatTreeK, sc.PacketsPerNode = 16, 10
	ref, err := RunOpenLoop("fattree", "random_permutation", 0.7, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Shards = 2
	var col netsim.Collector
	got, net, err := runOpenLoopCell(&col, "fattree", "random_permutation", 0.7, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Point != ref {
		t.Errorf("fattree k=16 shards=2 diverged:\n got %+v\nwant %+v", got.Point, ref)
	}
	if par := net.(interface{ ParallelEpochs() uint64 }).ParallelEpochs(); par == 0 || par >= got.Epochs {
		t.Errorf("fattree k=16 shards=2: %d of %d epochs parallel, want both modes", par, got.Epochs)
	}
}

// TestTraceReplayShardCountInvariant replays the four HPC generators on
// every sharded network model at K ∈ {1, 2, 4} under the progress watchdog
// and requires bit-identical replay statistics, collector statistics,
// ledgers and event counts: each rank's state lives on its node's shard, so
// a replay shards like any other traffic source.
func TestTraceReplayShardCountInvariant(t *testing.T) {
	type outcome struct {
		Stats     trace.Stats
		Delivered uint64
		Last      sim.Time
		Avg, Tail float64
		Ledger    netsim.Ledger
		Events    uint64
	}
	for _, network := range []string{"baldur", "multibutterfly", "dragonfly", "fattree"} {
		for _, workload := range trace.Names() {
			var ref outcome
			for _, k := range []int{1, 2, 4} {
				sc := withShards(Quick, k)
				net, err := build(network, sc)
				if err != nil {
					t.Fatal(err)
				}
				var col netsim.Collector
				col.Attach(net)
				w := trace.ByName(workload, net.NumNodes(), trace.Options{Iterations: sc.TraceIters, Seed: sc.Seed + 7})
				rep, err := trace.NewReplayer(net, w)
				if err != nil {
					t.Fatal(err)
				}
				rep.Watchdog = 50 * sim.Microsecond
				got := outcome{
					Stats:     rep.Run(),
					Delivered: col.Delivered(),
					Last:      col.LastDelivery(),
					Avg:       col.AvgNS(),
					Tail:      col.TailNS(),
					Ledger:    net.Ledger(),
					Events:    net.Events(),
				}
				if k == 1 {
					if !got.Stats.Completed || got.Stats.Packets == 0 || got.Delivered == 0 {
						t.Fatalf("%s/%s: serial replay empty or unfinished: %+v", network, workload, got)
					}
					ref = got
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s/%s K=%d diverged:\n got %+v\nwant %+v", network, workload, k, got, ref)
				}
			}
		}
	}
}

// TestShardCountInvariantMidScale repeats the invariance check at the Mid
// preset (8,192-node Baldur, 8,192-host fat-tree): large enough that the
// SoA slab layouts, the compact NIC tables and the streaming histograms all
// hold thousands of nodes' state, so a layout bug that aliases neighbouring
// nodes' slots — invisible at 64 nodes — breaks the bit-identical guarantee
// here. Tens of seconds of CPU, so -short skips it.
func TestShardCountInvariantMidScale(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale invariance is tens of seconds; skipped with -short")
	}
	for _, cell := range []struct {
		network, pattern string
		load             float64
	}{
		{"baldur", "random_permutation", 0.5},
		{"fattree", "random_permutation", 0.5},
	} {
		ref, err := RunOpenLoop(cell.network, cell.pattern, cell.load, Mid)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Events == 0 || !ref.Finished {
			t.Fatalf("%s: serial mid-scale run empty or unfinished: %+v", cell.network, ref)
		}
		sc := Mid
		sc.Shards = 4
		got, err := RunOpenLoop(cell.network, cell.pattern, cell.load, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Errorf("%s shards=4 diverged at mid scale:\n got %+v\nwant %+v", cell.network, got, ref)
		}
	}
}

// TestSeededReplayRepeatable runs the same cell twice in one process and
// requires identical results: event and packet pools must not leak state
// between what should be independent instances.
func TestSeededReplayRepeatable(t *testing.T) {
	for _, net := range NetworkNames {
		a, err := RunOpenLoop(net, "transpose", 0.7, Quick)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunOpenLoop(net, "transpose", 0.7, Quick)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: two identical seeded runs diverged:\n  %+v\n  %+v", net, a, b)
		}
	}
}
