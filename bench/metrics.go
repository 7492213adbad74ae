package main

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric's name, unit and which direction is better.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndDefs are the metrics a user of the simulator sees, measured on
// untraced passes. Failures are reported beside them as failed/attempted
// cells (fail_frac), which is zero on a healthy tree.
var endToEndDefs = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_pkts_per_s", "pkt/s", "higher"},
	{"peak_rss_bytes_per_node", "B", "lower"},
}

// modelLayers maps each network to the per-layer metric prefix of the
// package that models it.
var modelLayers = []struct{ net, prefix string }{
	{"baldur", "core.baldur"},
	{"multibutterfly", "elecnet.multibutterfly"},
	{"dragonfly", "elecnet.dragonfly"},
	{"fattree", "elecnet.fattree"},
	{"ideal", "elecnet.ideal"},
}

// perLayerDefs are the single-layer metrics measured on traced passes. A
// metric of a layer a workload does not use reads 0 there.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"sim.dispatch_ns", "ns", "lower"},
		{"sim.tie_dispatch_ns", "ns", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.ns_per_event_x", "ratio", "lower"},
		{"sharded.epochs", "count", "lower"},
		{"sharded.events_per_epoch", "count", "higher"},
		{"sharded.k2_over_k1", "ratio", "lower"},
	}
	for _, m := range modelLayers {
		defs = append(defs,
			metricDef{m.prefix + ".build_s", "s", "lower"},
			metricDef{m.prefix + ".heap_bytes_per_node", "B", "lower"},
			metricDef{m.prefix + ".ns_per_event", "ns", "lower"},
			metricDef{m.prefix + ".events_per_pkt", "event/pkt", "lower"},
		)
	}
	return append(defs,
		metricDef{"traffic.start_s", "s", "lower"},
		metricDef{"netsim.fold_us", "us", "lower"},
		metricDef{"netsim.run_calls", "count", "lower"},
		metricDef{"faults.slices", "count", "lower"},
		metricDef{"faults.applied", "count", "higher"},
		metricDef{"faults.ns_per_slice", "ns", "lower"},
		metricDef{"check.checkpoints", "count", "lower"},
		metricDef{"check.attach_s", "s", "lower"},
		metricDef{"harness.build_s", "s", "lower"},
		metricDef{"workload.attach_s", "s", "lower"},
		metricDef{"workload.flows", "count", "higher"},
		metricDef{"workload.reject_frac", "ratio", "lower"},
		metricDef{"cell.run_s_p50", "s", "lower"},
		metricDef{"cell.run_s_p90", "s", "lower"},
		metricDef{"cell.count", "count", "higher"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
	)
}()

// fold takes the median of each named per-pass value and attaches units
// from defs; names a pass did not produce read 0.
func fold(defs []metricDef, perPass []map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		var xs []float64
		for _, v := range perPass {
			xs = append(xs, v[d.Name])
		}
		out[d.Name] = metric{Value: median(xs), Unit: d.Unit}
	}
	return out
}

// hostDefs are printed and written with the end-to-end metrics to show
// what the reference clock did: the measured wall time and the reference
// kernel's speed. compare reports them without a bound.
var hostDefs = []metricDef{
	{"measured_wall_s", "s", "lower"},
	{"ref_ns_per_op", "ns", "lower"},
}

// refSeconds converts a pass's measured host seconds into reference
// seconds (see refclock.go).
func (p *passResult) refSeconds(s float64) float64 {
	return s * ratio(refNominalNS, p.RefNS)
}

// refCells returns the pass's cells with their host times in reference
// seconds.
func (p *passResult) refCells() []cellResult {
	cells := append([]cellResult(nil), p.Cells...)
	for i := range cells {
		c := &cells[i]
		for _, s := range []*float64{&c.WallS, &c.SetupS, &c.BuildS, &c.StartS, &c.WorkloadS, &c.CheckS, &c.RunS, &c.FoldS} {
			*s = p.refSeconds(*s)
		}
	}
	return cells
}

// endToEnd reports the end-to-end metrics of untraced passes, host times
// in reference seconds: the median over passes of each pass's value.
func endToEnd(passes []passResult) map[string]metric {
	var perPass []map[string]float64
	for _, p := range passes {
		var setup float64
		var delivered uint64
		for _, c := range p.refCells() {
			setup += c.SetupS
			delivered += c.Delivered
		}
		wall := p.refSeconds(p.WallS)
		perPass = append(perPass, map[string]float64{
			"wall_s":                  wall,
			"setup_s":                 setup,
			"sim_pkts_per_s":          ratio(float64(delivered), wall),
			"peak_rss_bytes_per_node": float64(p.PeakRSS) / float64(max(p.MaxNodes, 1)),
			"measured_wall_s":         p.WallS,
			"ref_ns_per_op":           p.RefNS,
		})
	}
	return fold(append(append([]metricDef(nil), endToEndDefs...), hostDefs...), perPass)
}

// perLayer reports the per-layer metrics of the traced passes among
// passes, in run order, with the run's kernel calibration; host times are
// in reference seconds. Each traced pass's tracing overhead is measured
// against the untraced passes run just before and after it.
func perLayer(passes []passResult, cal calibration) map[string]metric {
	ok := func(i int) bool { return i >= 0 && i < len(passes) && passes[i].Err == "" }
	var perPass []map[string]float64
	for i, p := range passes {
		if !ok(i) || !p.Traced {
			continue
		}
		v := layerValues(p.refCells())
		v["sim.dispatch_ns"] = cal.DispatchNS
		v["sim.tie_dispatch_ns"] = cal.TieDispatchNS
		v["sim.ns_per_event_x"] = ratio(v["sim.ns_per_event"], cal.DispatchNS)
		var neighbours []float64
		for _, j := range []int{i - 1, i + 1} {
			if ok(j) && !passes[j].Traced {
				neighbours = append(neighbours, passes[j].refSeconds(passes[j].WallS))
			}
		}
		if len(neighbours) > 0 {
			v["trace.overhead_frac"] = p.refSeconds(p.WallS)/median(neighbours) - 1
		}
		perPass = append(perPass, v)
	}
	return fold(perLayerDefs, perPass)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues derives one pass's per-layer values from its cells.
func layerValues(cells []cellResult) map[string]float64 {
	v := make(map[string]float64)
	var runS, campaignRunS, foldS float64
	var events, epochs, shardedEvents uint64
	var runs []float64
	byPair := make(map[string][2]float64) // K=1 and K=2 run seconds
	for _, c := range cells {
		runS += c.RunS
		foldS += c.FoldS
		events += c.Events
		epochs += c.Epochs
		if c.Shards > 1 {
			shardedEvents += c.Events
		}
		runs = append(runs, c.RunS)
		v["traffic.start_s"] += c.StartS
		v["netsim.run_calls"] += float64(c.RunCalls)
		v["faults.slices"] += float64(c.Slices)
		v["faults.applied"] += float64(c.Applied)
		v["check.checkpoints"] += float64(c.Checkpoints)
		v["check.attach_s"] += c.CheckS
		v["workload.attach_s"] += c.WorkloadS
		v["workload.flows"] += float64(c.Flows)
		v["workload.reject_frac"] += float64(c.Rejected)
		if c.Campaign {
			campaignRunS += c.RunS
			v["harness.build_s"] += c.BuildS
		}
		if c.Pair != "" && c.Shards <= 2 {
			r := byPair[c.Pair]
			r[c.Shards-1] = c.RunS
			byPair[c.Pair] = r
		}
	}
	v["workload.reject_frac"] = ratio(v["workload.reject_frac"], v["workload.flows"])
	v["sim.events"] = float64(events)
	v["sim.ns_per_event"] = ratio(runS*1e9, float64(events))
	v["sharded.epochs"] = float64(epochs)
	v["sharded.events_per_epoch"] = ratio(float64(shardedEvents), float64(epochs))
	var k2k1 []float64
	for _, r := range byPair {
		if r[0] > 0 && r[1] > 0 {
			k2k1 = append(k2k1, r[1]/r[0])
		}
	}
	v["sharded.k2_over_k1"] = median(k2k1)
	v["faults.ns_per_slice"] = ratio(campaignRunS*1e9, v["faults.slices"])
	v["netsim.fold_us"] = ratio(foldS*1e6, float64(len(cells)))
	v["cell.count"] = float64(len(cells))
	v["cell.run_s_p50"], _ = percentile(runs, 50)
	if p90, beyond := percentile(runs, 90); beyond >= 10 {
		v["cell.run_s_p90"] = p90
	}

	for _, m := range modelLayers {
		var build, run float64
		var ev, delivered uint64
		var largest *cellResult
		for i := range cells {
			c := &cells[i]
			if c.Net != m.net {
				continue
			}
			build += c.BuildS
			run += c.RunS
			ev += c.Events
			delivered += c.Delivered
			if largest == nil || c.Nodes > largest.Nodes {
				largest = c
			}
		}
		if largest == nil {
			continue
		}
		v[m.prefix+".build_s"] = build
		v[m.prefix+".heap_bytes_per_node"] = ratio(float64(largest.HeapBytes), float64(largest.Nodes))
		v[m.prefix+".ns_per_event"] = ratio(run*1e9, float64(ev))
		v[m.prefix+".events_per_pkt"] = ratio(float64(ev), float64(delivered))
	}
	return v
}
