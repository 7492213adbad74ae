// Benchmarks that regenerate each table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at a reduced
// (CI-friendly) scale and reports the headline quantities as custom metrics,
// so `go test -bench=. -benchmem` doubles as a results summary. Use
// cmd/figures -scale full for the paper-sized runs.
package baldur_test

import (
	"math"
	"testing"

	"baldur/internal/cost"
	"baldur/internal/dropmodel"
	"baldur/internal/encoding"
	"baldur/internal/exp"
	"baldur/internal/gatesim"
	"baldur/internal/packaging"
	"baldur/internal/power"
	"baldur/internal/reliability"
	"baldur/internal/switchckt"
	"baldur/internal/tl"
)

// benchScale is the per-iteration experiment size.
func benchScale() exp.Scale {
	sc := exp.Quick
	sc.PacketsPerNode = 60
	return sc
}

// BenchmarkTable5 regenerates Table V: drop rate, gate count and latency
// versus path multiplicity (transpose pattern, load 0.7).
func BenchmarkTable5(b *testing.B) {
	b.ReportAllocs()
	var rows []exp.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.Table5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].DropRatePct, "m1_drop_%")
	b.ReportMetric(rows[3].DropRatePct, "m4_drop_%")
	b.ReportMetric(float64(rows[3].Gates), "m4_gates")
	b.ReportMetric(rows[3].LatencyNS, "m4_latency_ns")
}

// benchFig6Pattern regenerates one Fig 6 panel: average/tail latency versus
// load for every network.
func benchFig6Pattern(b *testing.B, pattern string) {
	b.ReportAllocs()
	var res []exp.Fig6Result
	loads := []float64{0.3, 0.7}
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.Fig6(benchScale(), []string{pattern}, loads, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	var baldur07, ideal07, worst07 float64
	for _, p := range res[0].Points {
		if p.Load != 0.7 {
			continue
		}
		switch p.Network {
		case "baldur":
			baldur07 = p.AvgNS
		case "ideal":
			ideal07 = p.AvgNS
		}
		if p.Network != "ideal" && p.AvgNS > worst07 {
			worst07 = p.AvgNS
		}
	}
	b.ReportMetric(baldur07, "baldur_avg_ns@0.7")
	b.ReportMetric(baldur07/ideal07, "baldur_vs_ideal_x")
	b.ReportMetric(worst07/baldur07, "baldur_speedup_worst_x")
}

// BenchmarkFig6RandomPermutation regenerates Fig 6(a).
func BenchmarkFig6RandomPermutation(b *testing.B) { benchFig6Pattern(b, "random_permutation") }

// BenchmarkFig6Transpose regenerates Fig 6(b).
func BenchmarkFig6Transpose(b *testing.B) { benchFig6Pattern(b, "transpose") }

// BenchmarkFig6Bisection regenerates Fig 6(c).
func BenchmarkFig6Bisection(b *testing.B) { benchFig6Pattern(b, "bisection") }

// BenchmarkFig6GroupPermutation regenerates Fig 6(d).
func BenchmarkFig6GroupPermutation(b *testing.B) { benchFig6Pattern(b, "group_permutation") }

// BenchmarkFig7 regenerates Fig 7: hotspot, ping-pongs and the four HPC
// workloads, reporting the cross-workload geomean slowdowns of the two
// strongest baselines relative to Baldur.
func BenchmarkFig7(b *testing.B) {
	b.ReportAllocs()
	var rows []exp.Fig7Row
	sc := benchScale()
	sc.PacketsPerNode = 40
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exp.Fig7(sc, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	geo := func(net string) float64 {
		prod, n := 1.0, 0
		for _, r := range rows {
			if base := r.Avg["baldur"]; base > 0 && r.Avg[net] > 0 {
				prod *= r.Avg[net] / base
				n++
			}
		}
		if n == 0 {
			return 0
		}
		// n-th root via successive halving is overkill; use math.Pow.
		return pow(prod, 1/float64(n))
	}
	b.ReportMetric(geo("dragonfly"), "dragonfly_geomean_x")
	b.ReportMetric(geo("fattree"), "fattree_geomean_x")
	b.ReportMetric(geo("multibutterfly"), "multibutterfly_geomean_x")
}

// BenchmarkFig8 regenerates the power-versus-scale sweep.
func BenchmarkFig8(b *testing.B) {
	b.ReportAllocs()
	var rows []power.Fig8Row
	for i := 0; i < b.N; i++ {
		rows = power.Fig8()
	}
	last := rows[len(rows)-1]
	first := rows[0]
	b.ReportMetric(first.Baldur.Total(), "baldur_W_at_1K")
	b.ReportMetric(last.Baldur.Total(), "baldur_W_at_1M")
	b.ReportMetric(last.DF.Total()/last.Baldur.Total(), "improvement_vs_dragonfly_x")
	b.ReportMetric(last.MB.Total()/last.Baldur.Total(), "improvement_vs_mb_x")
}

// BenchmarkFig9 regenerates the switch-power sensitivity analysis at 1M.
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	var rows []power.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = power.Fig9()
	}
	pess := rows[1]
	b.ReportMetric(pess.DF/pess.Baldur, "pessimistic_vs_dragonfly_x")
	b.ReportMetric(pess.FT/pess.Baldur, "pessimistic_vs_fattree_x")
	b.ReportMetric(pess.MB/pess.Baldur, "pessimistic_vs_mb_x")
}

// BenchmarkFig10 regenerates the cost-versus-scale sweep.
func BenchmarkFig10(b *testing.B) {
	b.ReportAllocs()
	var at1K, at1M cost.Breakdown
	for i := 0; i < b.N; i++ {
		at1K = cost.Baldur(1024)
		at1M = cost.Baldur(1 << 20)
	}
	b.ReportMetric(at1K.Total(), "usd_per_node_1K")
	b.ReportMetric(at1M.Total(), "usd_per_node_1M")
	b.ReportMetric(at1K.Interposers/at1K.Total(), "interposer_share")
}

// BenchmarkDropModel regenerates the Sec IV-E worst-case wave analysis at a
// 64K-node scale.
func BenchmarkDropModel(b *testing.B) {
	b.ReportAllocs()
	var r dropmodel.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = dropmodel.Simulate(1<<16, 5, dropmodel.RandomPerm, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.DropRate()*100, "m5_wave_drop_%")
}

// BenchmarkReliability regenerates the Sec IV-F Monte-Carlo decode check.
func BenchmarkReliability(b *testing.B) {
	b.ReportAllocs()
	var errors, bits int
	for i := 0; i < b.N; i++ {
		errors, bits = reliability.MonteCarloDecode(20000, 8, 0.875, uint64(i))
	}
	b.ReportMetric(float64(errors), "errors")
	b.ReportMetric(float64(bits), "bits")
	b.ReportMetric(reliability.ErrorProbability(0.42, 1.237)*1e9, "analytic_x1e-9")
}

// BenchmarkPackaging regenerates the Sec IV-G cabinet arithmetic.
func BenchmarkPackaging(b *testing.B) {
	b.ReportAllocs()
	var plan packaging.Plan
	for i := 0; i < b.N; i++ {
		plan = packaging.PlanFor(1 << 20)
	}
	b.ReportMetric(float64(plan.Cabinets), "cabinets_1M")
	b.ReportMetric(float64(plan.CabinetsByPower), "power_only_cabinets")
}

// BenchmarkBaldurSimulator measures raw simulator throughput
// (packets simulated per second of wall time).
func BenchmarkBaldurSimulator(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	totalPackets := 0
	var totalEvents uint64
	for i := 0; i < b.N; i++ {
		p, err := exp.RunOpenLoop("baldur", "random_permutation", 0.7, sc)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += p.Events
		totalPackets += sc.Nodes * sc.PacketsPerNode
	}
	b.ReportMetric(float64(totalPackets)/b.Elapsed().Seconds(), "packets/s")
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkBaldurSimulatorSharded runs the same workload as
// BenchmarkBaldurSimulator across 8 conservative-parallel shards.
// Statistics are bit-identical to the serial run; the packets/s ratio
// between the two benchmarks is the parallel speedup on this machine.
func BenchmarkBaldurSimulatorSharded(b *testing.B) {
	b.ReportAllocs()
	sc := benchScale()
	sc.Shards = 8
	totalPackets := 0
	var totalEvents, totalEpochs uint64
	for i := 0; i < b.N; i++ {
		d, err := exp.RunOpenLoopDetail("baldur", "random_permutation", 0.7, sc)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += d.Events
		totalEpochs += d.Epochs
		totalPackets += sc.Nodes * sc.PacketsPerNode
	}
	b.ReportMetric(float64(totalPackets)/b.Elapsed().Seconds(), "packets/s")
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(totalEpochs)/b.Elapsed().Seconds(), "epochs/s")
}

// BenchmarkGateCounts keeps the Table V device model honest.
func BenchmarkGateCounts(b *testing.B) {
	b.ReportAllocs()
	var g int
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 5; m++ {
			g += tl.GatesPerSwitch(m)
		}
	}
	b.ReportMetric(float64(tl.GatesPerSwitch(4)), "gates_m4")
}

// pow guards math.Pow against non-positive bases from empty geomeans.
func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}

// BenchmarkSwitchCircuit measures gate-level simulation throughput: one
// full packet through the Fig 4 netlist per iteration.
func BenchmarkSwitchCircuit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := switchckt.Build(gatesim.Config{})
		pkt, end := encoding.EncodeFrame(0, []bool{false, true}, []byte{0xA5, 0x3C})
		s.Circuit.PlaySignal(s.In[0], pkt)
		s.Run(end + 2_000_000) // +2 ns of settle
	}
	b.ReportMetric(float64(switchckt.Build(gatesim.Config{}).GateCount()), "gates")
}

// BenchmarkDropModel1M runs the worst-case wave at the full million-node
// scale — the workload the paper's in-house tool was built for.
func BenchmarkDropModel1M(b *testing.B) {
	b.ReportAllocs()
	if testing.Short() {
		b.Skip("1M-node wave in -short mode")
	}
	var r dropmodel.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = dropmodel.Simulate(1<<20, 5, dropmodel.RandomPerm, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.DropRate()*100, "m5_wave_drop_%")
}
