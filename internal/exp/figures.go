package exp

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"baldur/internal/awgr"
	"baldur/internal/core"
	"baldur/internal/cost"
	"baldur/internal/dropmodel"
	"baldur/internal/netsim"
	"baldur/internal/packaging"
	"baldur/internal/power"
	"baldur/internal/reliability"
	"baldur/internal/stats"
	"baldur/internal/tl"
	"baldur/internal/trace"
	"baldur/internal/traffic"
)

// Table4 renders the TL gate characteristics (paper Table IV).
func Table4() string {
	g := tl.Table4()
	return renderTable(
		[]string{"Area(um2)", "Rise/Fall(ps)", "Delay(ps)", "Power(mW)", "DataRate(Gbps)", "Energy(fJ/bit)"},
		[][]string{{
			fmt.Sprintf("%.0f", g.AreaUM2),
			fmt.Sprintf("%.1f", g.RiseFallPS),
			fmt.Sprintf("%.2f", g.DelayPS),
			fmt.Sprintf("%.3f", g.PowerW*1e3),
			fmt.Sprintf("%.0f", g.DataRateGbps),
			fmt.Sprintf("%.2f", g.EnergyPerBitJ()*1e15),
		}},
	)
}

// Table5Row is one multiplicity point of Table V.
type Table5Row struct {
	Multiplicity    int
	Gates           int
	LatencyNS       float64
	DropRatePct     float64 // measured: transpose, load 0.7
	PaperDropPct    float64
	SwitchPowerW    float64
	PaperResolution string
}

// Table5 measures drop rate versus multiplicity on the transpose pattern at
// 0.7 load (the paper's Table V setup) and pairs it with the gate-count and
// latency models. The drop rate is measured with the retransmission
// protocol disabled so the offered load stays exactly at 0.7 — with
// retransmission and backoff enabled, BEB throttles the senders and the
// observed drop rate understates the raw contention Table V characterizes.
// (At the paper's 1,024-node scale this measurement gives 64.6 / 16.4 /
// 2.4 / 0.18 / 0.01 % for m=1..5 versus the paper's 65.3 / 21.5 / 3.2 /
// 0.3 / 0.02.)
func Table5(sc Scale) ([]Table5Row, error) {
	rows := make([]Table5Row, 0, 5)
	for m := 1; m <= 5; m++ {
		n, err := core.New(core.Config{
			Nodes:             sc.Nodes,
			Multiplicity:      m,
			Seed:              sc.Seed,
			DisableRetransmit: true,
			Shards:            sc.Shards,
		})
		if err != nil {
			return nil, err
		}
		p, err := sc.runOpenLoopOn(n, fmt.Sprintf("table5-m%d", m), traffic.OpenLoop{
			Pattern:        traffic.Transpose(n.NumNodes()),
			Load:           0.7,
			PacketsPerNode: sc.PacketsPerNode,
			Seed:           sc.Seed + 55,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Multiplicity: m,
			Gates:        tl.GatesPerSwitch(m),
			LatencyNS:    tl.SwitchLatencyNS(m),
			DropRatePct:  p.DropRate * 100,
			PaperDropPct: tl.PaperDropRatePct(m),
			SwitchPowerW: tl.SwitchPowerW(m),
		})
	}
	return rows, nil
}

// RenderTable5 formats Table V.
func RenderTable5(rows []Table5Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprintf("%d", r.Multiplicity),
			fmt.Sprintf("%d", r.Gates),
			fmt.Sprintf("%.2f", r.LatencyNS),
			fmt.Sprintf("%.2f", r.DropRatePct),
			fmt.Sprintf("%.2f", r.PaperDropPct),
			fmt.Sprintf("%.3f", r.SwitchPowerW),
		}
	}
	return renderTable(
		[]string{"m", "Gates/Switch", "SwitchLatency(ns)", "Drop%(measured)", "Drop%(paper)", "SwitchPower(W)"},
		out,
	)
}

// Fig6Result holds one pattern's sweep across networks and loads.
type Fig6Result struct {
	Pattern string
	Points  []Point
}

// Fig6 sweeps the four open-loop patterns over loads and networks.
func Fig6(sc Scale, patterns []string, loads []float64, networks []string) ([]Fig6Result, error) {
	if patterns == nil {
		patterns = Fig6Patterns
	}
	if loads == nil {
		loads = Fig6Loads
	}
	if networks == nil {
		networks = NetworkNames
	}
	// Every (pattern, network) series is an independent simulation
	// sequence, so fan the series out across CPUs; within a series the
	// load points run in order through one collector, reusing its
	// latency-sample and histogram-bucket allocations between loads.
	type series struct {
		pat  int
		base int // index of the first load point in Points
		net  string
	}
	var cells []series
	results := make([]Fig6Result, len(patterns))
	for pi, pat := range patterns {
		results[pi].Pattern = pat
		results[pi].Points = make([]Point, len(networks)*len(loads))
		for ni, net := range networks {
			cells = append(cells, series{pat: pi, base: ni * len(loads), net: net})
		}
	}
	err := runParallel(len(cells), sc.workers(), func(ci int) error {
		c := cells[ci]
		var col netsim.Collector
		for li, load := range loads {
			d, _, err := runOpenLoopCell(&col, c.net, patterns[c.pat], load, sc)
			if err != nil {
				return fmt.Errorf("fig6 %s/%s@%.1f: %w", c.net, patterns[c.pat], load, err)
			}
			results[c.pat].Points[c.base+li] = d.Point
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RenderFig6 formats one pattern's sweep as the paper's two panels
// (average and tail latency vs load).
func RenderFig6(r Fig6Result) string {
	header := []string{"network", "load", "avg(ns)", "p99(ns)", "drop%"}
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Network,
			fmt.Sprintf("%.1f", p.Load),
			fmt.Sprintf("%.0f", p.AvgNS),
			fmt.Sprintf("%.0f", p.TailNS),
			fmt.Sprintf("%.2f", p.DropRate*100),
		})
	}
	return "Fig 6 — " + r.Pattern + "\n" + renderTable(header, rows)
}

// Fig7Row is one workload of Fig 7: per-network latency, normalized to
// Baldur.
type Fig7Row struct {
	Workload string
	// Avg and Tail are keyed by network name (ns).
	Avg  map[string]float64
	Tail map[string]float64
}

// Fig7Workloads lists the Fig 7 workloads in paper order.
var Fig7Workloads = []string{"hotspot", "ping_pong1", "ping_pong2", "AMG", "BigFFT", "CR", "FB"}

// Fig7 runs hotspot (open loop at 0.7), the two ping-pongs (closed loop)
// and the four HPC traces on every network.
func Fig7(sc Scale, networks []string) ([]Fig7Row, error) {
	if networks == nil {
		networks = NetworkNames
	}
	rows := make([]Fig7Row, len(Fig7Workloads))
	type res struct {
		wl, net int
		p       Point
		err     error
	}
	out := make([]res, 0, len(Fig7Workloads)*len(networks))
	for wi := range Fig7Workloads {
		rows[wi] = Fig7Row{Workload: Fig7Workloads[wi], Avg: map[string]float64{}, Tail: map[string]float64{}}
		for ni := range networks {
			out = append(out, res{wl: wi, net: ni})
		}
	}
	err := runParallel(len(out), sc.workers(), func(i int) error {
		r := &out[i]
		wl, netName := Fig7Workloads[r.wl], networks[r.net]
		switch wl {
		case "hotspot":
			r.p, r.err = RunOpenLoop(netName, "hotspot", 0.7, sc)
		case "ping_pong1", "ping_pong2":
			r.p, r.err = RunPingPong(netName, wl, sc)
		default:
			r.p, r.err = RunTrace(netName, wl, sc)
		}
		if r.err != nil {
			return fmt.Errorf("fig7 %s/%s: %w", netName, wl, r.err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range out {
		rows[r.wl].Avg[networks[r.net]] = r.p.AvgNS
		rows[r.wl].Tail[networks[r.net]] = r.p.TailNS
	}
	return rows, nil
}

// RunTrace replays a named HPC workload on a network. A stuck replay (the
// watchdog tripped, or the engine drained with ranks blocked) prints its
// diagnosis to stderr and yields Finished=false, not an error.
func RunTrace(network, workload string, sc Scale) (Point, error) {
	p, _, err := runTrace(network, workload, sc)
	return p, err
}

// runTrace runs one trace-replay cell and also returns the cell. The
// replayer holds global rank state, so the network is always built serial.
func runTrace(network, workload string, sc Scale) (Point, *cell, error) {
	sc.Shards = 0
	net, err := build(network, sc)
	if err != nil {
		return Point{}, nil, err
	}
	w := trace.ByName(workload, net.NumNodes(), trace.Options{
		Iterations: sc.TraceIters,
		Seed:       sc.Seed + 7,
	})
	if w == nil {
		return Point{}, nil, fmt.Errorf("unknown workload %q", workload)
	}
	var col netsim.Collector
	var rep *trace.Replayer
	c := sc.newCell(net, &col, fmt.Sprintf("%s-%s", network, workload), nil)
	// The replay source registers its delivery callback after the
	// collector's and hands the cell its watchdog timeline.
	c.start = func(net netsim.Network) (err error) {
		if rep, err = trace.NewReplayer(net, w); err != nil {
			return err
		}
		rep.Watchdog = sc.Watchdog
		c.timeline = rep.Start()
		return nil
	}
	var p Point
	err = c.run(func() error {
		st := rep.Stats()
		if st.Stuck != nil {
			fmt.Fprintln(os.Stderr, st.Stuck.String())
		}
		p = c.point(network)
		p.Finished = st.Completed
		return nil
	})
	var stuck *trace.StuckReport
	if errors.As(err, &stuck) {
		err = nil // the fold printed it; the Point is unfinished
	}
	return p, c, err
}

// RenderFig7 formats the normalized table plus geomeans, like the paper's
// normalized bars.
func RenderFig7(rows []Fig7Row, networks []string) string {
	if networks == nil {
		networks = NetworkNames
	}
	header := []string{"workload"}
	for _, n := range networks {
		header = append(header, n+" avg(x)", n+" p99(x)")
	}
	var out [][]string
	ratios := map[string][]float64{}
	for _, r := range rows {
		base := r.Avg["baldur"]
		baseT := r.Tail["baldur"]
		cells := []string{r.Workload}
		for _, n := range networks {
			av, tl := 0.0, 0.0
			if base > 0 {
				av = r.Avg[n] / base
			}
			if baseT > 0 {
				tl = r.Tail[n] / baseT
			}
			ratios[n+"a"] = append(ratios[n+"a"], av)
			ratios[n+"t"] = append(ratios[n+"t"], tl)
			cells = append(cells, fmt.Sprintf("%.2f", av), fmt.Sprintf("%.2f", tl))
		}
		out = append(out, cells)
	}
	geo := []string{"GEOMEAN"}
	for _, n := range networks {
		geo = append(geo,
			fmt.Sprintf("%.2f", stats.Geomean(ratios[n+"a"])),
			fmt.Sprintf("%.2f", stats.Geomean(ratios[n+"t"])))
	}
	out = append(out, geo)
	return "Fig 7 — latency normalized to Baldur\n" + renderTable(header, out)
}

// RenderFig8 formats the power-versus-scale sweep.
func RenderFig8() string {
	var rows [][]string
	for _, r := range power.Fig8() {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Target),
			fmt.Sprintf("%.1f", r.Baldur.Total()),
			fmt.Sprintf("%.1f", r.MB.Total()),
			fmt.Sprintf("%.1f", r.DF.Total()),
			fmt.Sprintf("%.1f", r.FT.Total()),
		})
	}
	return "Fig 8 — power per node (W) vs scale\n" + renderTable(
		[]string{"scale", "baldur", "multibutterfly", "dragonfly", "fattree"}, rows)
}

// RenderFig9 formats the sensitivity analysis.
func RenderFig9() string {
	var rows [][]string
	for _, r := range power.Fig9() {
		rows = append(rows, []string{
			r.Case.Name,
			fmt.Sprintf("%.1f", r.Baldur),
			fmt.Sprintf("%.1f", r.MB),
			fmt.Sprintf("%.1f", r.DF),
			fmt.Sprintf("%.1f", r.FT),
		})
	}
	return "Fig 9 — 1M-scale power sensitivity (W/node)\n" + renderTable(
		[]string{"case", "baldur", "multibutterfly", "dragonfly", "fattree"}, rows)
}

// RenderFig10 formats the cost sweep.
func RenderFig10() string {
	var rows [][]string
	for _, n := range power.Scales {
		b := cost.Baldur(n)
		rows = append(rows, []string{
			fmt.Sprintf("%d", b.Nodes),
			fmt.Sprintf("%.0f", b.Total()),
			fmt.Sprintf("%.0f", b.Interposers),
			fmt.Sprintf("%.0f", b.Transceivers),
			fmt.Sprintf("%.0f", b.Fibers+b.FAUs+b.RFECs),
		})
	}
	return "Fig 10 — Baldur cost per node (USD) vs scale\n" + renderTable(
		[]string{"nodes", "total", "interposers", "transceivers", "fiber+FAU+RFEC"}, rows)
}

// RenderDropModel formats the Sec IV-E multiplicity selection table.
func RenderDropModel(scales []int, seed uint64) (string, error) {
	if scales == nil {
		scales = []int{1 << 10, 1 << 14, 1 << 18}
	}
	var rows [][]string
	for _, n := range scales {
		for m := 1; m <= 5; m++ {
			r, err := dropmodel.Simulate(n, m, dropmodel.RandomPerm, seed)
			if err != nil {
				return "", err
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", m),
				fmt.Sprintf("%.2f", r.DropRate()*100),
			})
		}
	}
	return "Sec IV-E — worst-case wave drop rate (%)\n" + renderTable(
		[]string{"nodes", "m", "drop%"}, rows), nil
}

// RenderPackaging formats the Sec IV-G construction table.
func RenderPackaging() string {
	var rows [][]string
	for _, n := range power.Scales {
		p := packaging.PlanFor(n)
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%d", p.Multiplicity),
			fmt.Sprintf("%d", p.Interposers),
			fmt.Sprintf("%d", p.PCBs),
			fmt.Sprintf("%d", p.CabinetsByFiber),
			fmt.Sprintf("%d", p.CabinetsByPower),
			fmt.Sprintf("%d", p.Cabinets),
		})
	}
	return "Sec IV-G — packaging\n" + renderTable(
		[]string{"nodes", "m", "interposers", "PCBs", "cab(fiber)", "cab(power)", "cabinets"}, rows)
}

// RenderAWGR formats the Sec VII comparison.
func RenderAWGR() string {
	c := awgr.Compare()
	rows := [][]string{
		{"power (W/node)", fmt.Sprintf("%.2f", c.BaldurPowerW), fmt.Sprintf("%.2f", c.AWGRPowerW)},
		{"header/switching (ns)", fmt.Sprintf("%.1f", c.BaldurSwitchNS), fmt.Sprintf("%.0f", c.AWGRHeaderNS)},
		{"scalability", "1M+ nodes", fmt.Sprintf("<= %d nodes", c.AWGRScalabilityCap)},
	}
	return "Sec VII — Baldur vs AWGR at 32 nodes\n" + renderTable(
		[]string{"metric", "baldur", "awgr"}, rows)
}

// RenderReliability formats the Sec IV-F analysis.
func RenderReliability(mcTrials int, seed uint64) string {
	sigma := 1.237 // sqrt(1.53 ps^2)
	analytic := reliability.ErrorProbability(0.42, sigma)
	errors, bits := reliability.MonteCarloDecode(mcTrials, 8, sigma/1.4142, seed)
	rows := [][]string{
		{"analytic (0.42T margin, sigma 1.24ps)", fmt.Sprintf("%.2e", analytic)},
		{"paper headline", "1e-09"},
		{"monte carlo errors/bits", fmt.Sprintf("%d/%d", errors, bits)},
	}
	return "Sec IV-F — decode error probability\n" + renderTable(
		[]string{"quantity", "value"}, rows)
}

// SortedNetworks returns network names ordered for stable output.
func SortedNetworks(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
