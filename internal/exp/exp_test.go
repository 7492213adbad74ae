package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"baldur/internal/sim"
)

// tiny returns a minimal scale for fast harness tests.
func tiny() Scale {
	sc := Quick
	sc.PacketsPerNode = 30
	return sc
}

func TestTable4Renders(t *testing.T) {
	s := Table4()
	for _, want := range []string{"25", "1.93", "0.406", "60", "6.77"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table4 output missing %q:\n%s", want, s)
		}
	}
}

func TestTable5ShapeMatchesPaper(t *testing.T) {
	rows, err := Table5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Gate counts and latencies are the published values; drop rate must
	// fall monotonically with multiplicity and be small at m=4.
	for i, r := range rows {
		if r.Multiplicity != i+1 {
			t.Errorf("row %d multiplicity %d", i, r.Multiplicity)
		}
		if i > 0 && r.DropRatePct > rows[i-1].DropRatePct {
			t.Errorf("drop rate rose from m=%d to m=%d (%.2f -> %.2f)",
				i, i+1, rows[i-1].DropRatePct, r.DropRatePct)
		}
	}
	if rows[0].Gates != 64 || rows[3].Gates != 1112 {
		t.Errorf("gate counts wrong: %+v", rows)
	}
	if rows[0].DropRatePct < 5 {
		t.Errorf("m=1 drop%% = %.2f, expected heavy drops", rows[0].DropRatePct)
	}
	if rows[3].DropRatePct > 2 {
		t.Errorf("m=4 drop%% = %.2f, paper reports 0.3%%", rows[3].DropRatePct)
	}
	if out := RenderTable5(rows); !strings.Contains(out, "1112") {
		t.Error("render missing gate count")
	}
}

func TestRunOpenLoopAllNetworks(t *testing.T) {
	sc := tiny()
	for _, net := range NetworkNames {
		p, err := RunOpenLoop(net, "random_permutation", 0.5, sc)
		if err != nil {
			t.Fatalf("%s: %v", net, err)
		}
		if !p.Finished {
			t.Errorf("%s: hit safety horizon", net)
		}
		if p.AvgNS <= 0 || p.TailNS < p.AvgNS/2 {
			t.Errorf("%s: implausible stats %+v", net, p)
		}
	}
}

func TestBaldurBeatsElectricalAtModerateLoad(t *testing.T) {
	// The headline Fig 6 ordering at load 0.7: Baldur's average latency
	// is the lowest of the four real networks; the ideal network is the
	// floor.
	sc := tiny()
	sc.PacketsPerNode = 60
	avg := map[string]float64{}
	for _, net := range NetworkNames {
		p, err := RunOpenLoop(net, "random_permutation", 0.7, sc)
		if err != nil {
			t.Fatal(err)
		}
		avg[net] = p.AvgNS
	}
	for _, other := range []string{"multibutterfly", "dragonfly", "fattree"} {
		if avg["baldur"] >= avg[other] {
			t.Errorf("baldur (%.0f ns) not below %s (%.0f ns)", avg["baldur"], other, avg[other])
		}
	}
	if avg["ideal"] >= avg["baldur"] {
		t.Errorf("ideal (%.0f) not below baldur (%.0f)", avg["ideal"], avg["baldur"])
	}
	// Paper: Baldur is within 1.7x-3.4x of ideal.
	if ratio := avg["baldur"] / avg["ideal"]; ratio > 5 {
		t.Errorf("baldur/ideal = %.1fx, paper reports 1.7-3.4x", ratio)
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	sc := tiny()
	low, err := RunOpenLoop("baldur", "bisection", 0.1, sc)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunOpenLoop("baldur", "bisection", 0.9, sc)
	if err != nil {
		t.Fatal(err)
	}
	if high.AvgNS <= low.AvgNS {
		t.Errorf("avg latency did not rise with load: %.0f -> %.0f", low.AvgNS, high.AvgNS)
	}
	// At this small scale m=4 can absorb even 0.9 load without drops, so
	// only require monotonicity.
	if high.DropRate < low.DropRate {
		t.Errorf("drop rate fell with load: %v -> %v", low.DropRate, high.DropRate)
	}
}

func TestFig6SmallSweep(t *testing.T) {
	sc := tiny()
	res, err := Fig6(sc, []string{"transpose"}, []float64{0.3, 0.7}, []string{"baldur", "ideal"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Points) != 4 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	out := RenderFig6(res[0])
	if !strings.Contains(out, "transpose") || !strings.Contains(out, "baldur") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

// TestFig6Ordering pins the shape of the Quick-scale Fig 6 sweep on the
// packet tier as orderings and growth bands, not numeric goldens:
//   - Baldur has the lowest avg and p99 of the four real networks at every
//     load <= 0.7, on every pattern (closest at seed 1: group_permutation
//     @0.7, multi-butterfly p99 1.12x Baldur's);
//   - from load 0.1 to 0.9 the dragonfly's avg grows at least 5x (7.2-16.5x
//     at seed 1), Baldur's 2-5x (2.8-3.3x) and the electrical
//     multi-butterfly's at most 2x (1.5x): it stays flat to 0.9.
func TestFig6Ordering(t *testing.T) {
	nets := []string{"baldur", "multibutterfly", "dragonfly", "fattree"}
	res, err := Fig6(Quick, nil, nil, nets)
	if err != nil {
		t.Fatal(err)
	}
	first, last := Fig6Loads[0], Fig6Loads[len(Fig6Loads)-1]
	growthBand := map[string][2]float64{"baldur": {2, 5}, "multibutterfly": {1, 2}, "dragonfly": {5, math.Inf(1)}}
	for _, r := range res {
		at := make(map[string]map[float64]Point)
		for _, p := range r.Points {
			if at[p.Network] == nil {
				at[p.Network] = make(map[float64]Point)
			}
			at[p.Network][p.Load] = p
		}
		for _, load := range Fig6Loads {
			if load > 0.7 {
				continue
			}
			b := at["baldur"][load]
			for _, net := range nets[1:] {
				o := at[net][load]
				if !(b.AvgNS < o.AvgNS && b.TailNS < o.TailNS) {
					t.Errorf("%s@%.1f: baldur avg/p99 %.0f/%.0f ns not below %s's %.0f/%.0f ns",
						r.Pattern, load, b.AvgNS, b.TailNS, net, o.AvgNS, o.TailNS)
				}
			}
		}
		for net, band := range growthBand {
			g := at[net][last].AvgNS / at[net][first].AvgNS
			if g < band[0] || g > band[1] {
				t.Errorf("%s %s: avg grew %.2fx from load %.1f to %.1f, want %g-%gx",
					r.Pattern, net, g, first, last, band[0], band[1])
			}
		}
	}
}

func TestFig7SmallAndRender(t *testing.T) {
	sc := tiny()
	sc.PacketsPerNode = 20
	rows, err := Fig7(sc, []string{"baldur", "fattree"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig7Workloads) {
		t.Fatalf("rows = %d, want %d", len(rows), len(Fig7Workloads))
	}
	out := RenderFig7(rows, []string{"baldur", "fattree"})
	if !strings.Contains(out, "GEOMEAN") || !strings.Contains(out, "FB") {
		t.Errorf("render incomplete:\n%s", out)
	}
	// Baldur normalizes to 1.0 against itself.
	for _, r := range rows {
		if r.Avg["baldur"] <= 0 {
			t.Errorf("%s: no baldur baseline", r.Workload)
		}
	}
}

func TestPingPongSerializationDominates(t *testing.T) {
	// Ping-pong emphasizes per-packet latency: electrical nets with 90 ns
	// per-hop processing must be clearly slower than Baldur.
	sc := tiny()
	sc.PacketsPerNode = 50
	b, err := RunPingPong("baldur", "ping_pong1", sc)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := RunPingPong("multibutterfly", "ping_pong1", sc)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := mb.AvgNS / b.AvgNS; ratio < 1.5 {
		t.Errorf("multibutterfly/baldur ping-pong ratio = %.2f, want > 1.5", ratio)
	}
}

func TestAnalyticRenderers(t *testing.T) {
	cases := map[string]string{
		"fig8":      RenderFig8(),
		"fig9":      RenderFig9(),
		"fig10":     RenderFig10(),
		"packaging": RenderPackaging(),
		"awgr":      RenderAWGR(),
	}
	for name, out := range cases {
		if len(out) < 50 || !strings.Contains(out, "\n") {
			t.Errorf("%s render too small:\n%s", name, out)
		}
	}
	if !strings.Contains(cases["fig8"], "1048576") {
		t.Error("fig8 missing the 1M scale row")
	}
	if !strings.Contains(cases["awgr"], "awgr") {
		t.Error("awgr render incomplete")
	}
}

func TestRenderDropModel(t *testing.T) {
	out, err := RenderDropModel([]int{256}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "256") {
		t.Errorf("drop model render incomplete:\n%s", out)
	}
}

func TestRenderReliability(t *testing.T) {
	out := RenderReliability(2000, 1)
	if !strings.Contains(out, "1e-09") {
		t.Errorf("reliability render incomplete:\n%s", out)
	}
}

func TestUnknownNamesError(t *testing.T) {
	if _, err := RunOpenLoop("nope", "transpose", 0.5, tiny()); err == nil {
		t.Error("unknown network accepted")
	}
	if _, err := RunOpenLoop("baldur", "nope", 0.5, tiny()); err == nil {
		t.Error("unknown pattern accepted")
	}
	if _, err := RunTrace("baldur", "nope", tiny()); err == nil {
		t.Error("unknown workload accepted")
	}
	// Every network refuses a node count the builder cannot map exactly,
	// naming the value.
	for _, nodes := range []int{1000, 2, 0} {
		sc := tiny()
		sc.Nodes = nodes
		for _, network := range NetworkNames {
			_, err := RunOpenLoop(network, "transpose", 0.5, sc)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(nodes)) {
				t.Errorf("%s with %d nodes: err = %v, want one naming the value", network, nodes, err)
			}
		}
	}
}

// TestRunTraceWatchdogTrip drives a trace cell whose watchdog window is far
// shorter than a packet's flight, so the watchdog trips at an early
// boundary and stops the drive. RunTrace must still fold the partial run
// into an unfinished Point instead of failing.
func TestRunTraceWatchdogTrip(t *testing.T) {
	sc := tiny()
	sc.Watchdog = sim.Nanosecond
	p, c, err := runTrace("baldur", "AMG", sc)
	if err != nil {
		t.Fatalf("a watchdog trip is not an error: %v", err)
	}
	if p.Finished || !c.more {
		t.Errorf("tripped replay reported finished=%v with events queued=%v", p.Finished, c.more)
	}
	if p.Events == 0 {
		t.Errorf("tripped replay folded no events: %+v", p)
	}
}

func TestCSVAndTableHelpers(t *testing.T) {
	h := []string{"a", "bb"}
	rows := [][]string{{"1", "2"}, {"333", "4"}}
	csv := CSV(h, rows)
	if csv != "a,bb\n1,2\n333,4\n" {
		t.Errorf("CSV = %q", csv)
	}
	tbl := renderTable(h, rows)
	if !strings.Contains(tbl, "333") || !strings.Contains(tbl, "---") {
		t.Errorf("table = %q", tbl)
	}
}

func TestProfilePercentilesOrdered(t *testing.T) {
	sc := tiny()
	pr, err := Profile("baldur", "random_permutation", 0.7, sc)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Samples == 0 {
		t.Fatal("no samples")
	}
	if !(pr.P50 <= pr.P90 && pr.P90 <= pr.P99 && pr.P99 <= pr.P999 && pr.P999 <= pr.Max) {
		t.Errorf("percentiles not ordered: %+v", pr)
	}
	out := RenderProfiles([]LatencyProfile{pr})
	if !strings.Contains(out, "baldur") || !strings.Contains(out, "p99.9") {
		t.Errorf("render incomplete:\n%s", out)
	}
}
