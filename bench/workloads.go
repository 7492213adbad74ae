package main

import (
	"runtime"

	"baldur/internal/faults"
	"baldur/internal/prof"
	"baldur/internal/sim"
)

// workloadDef is one benchmark workload: a fixed list of cells generated
// from the seed. short selects the reduced size the smoke test runs.
type workloadDef struct {
	name  string
	why   string
	cells func(seed uint64, short bool) []cellSpec
}

var fig6Patterns = []string{"random_permutation", "transpose", "bisection", "group_permutation"}

var fig6Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

var fig6Nets = []string{"baldur", "multibutterfly", "dragonfly", "fattree", "ideal"}

// longCellSlice is the netsim.Run slice of the ping-pong and 128K-node
// cells, which take a second or more of host time each but finish within
// a few microseconds of virtual time. It gives the reference clock a chance
// to sample every few tens of milliseconds; the sharded engine's epochs at
// K=2 are no shorter.
const longCellSlice = 100 * sim.Nanosecond

var workloads = []workloadDef{
	{
		name: "fig6_medium",
		why:  "the paper's Fig 6 open-loop sweep at Medium scale: per-event model and kernel cost on a cache-resident working set",
		cells: func(seed uint64, short bool) []cellSpec {
			sh, ppn, patterns, loads := shape{256, 3, 10}, 50, fig6Patterns, fig6Loads
			if short {
				sh, ppn, patterns, loads = shape{64, 2, 6}, 20, fig6Patterns[:1], []float64{0.3, 0.9}
			}
			var out []cellSpec
			for _, pat := range patterns {
				for _, load := range loads {
					for _, net := range fig6Nets {
						out = append(out, cellSpec{kind: openLoop, net: net, pattern: pat, load: load, shape: sh, packets: ppn, seed: seed})
					}
				}
			}
			return out
		},
	},
	{
		name: "pingpong_mid",
		why:  "closed-loop ping-pong on 8K-node networks: synchronised sends make 8,192-wide same-time tie groups in the event kernel",
		cells: func(seed uint64, short bool) []cellSpec {
			sh, rounds := shape{8192, 7, 32}, 8
			if short {
				sh, rounds = shape{256, 3, 10}, 5
			}
			var out []cellSpec
			for _, net := range []string{"baldur", "dragonfly", "fattree"} {
				out = append(out, cellSpec{kind: pingPong, net: net, pattern: "ping_pong1", shape: sh, packets: rounds, seed: seed, slice: longCellSlice})
			}
			return out
		},
	},
	{
		name: "datacenter_128k",
		why:  "131,072-node Baldur and a 128,000-host fat-tree at K=2: construction, bytes per node and an out-of-cache working set",
		cells: func(seed uint64, short bool) []cellSpec {
			sh, ppn := shape{131072, 13, 80}, 2
			if short {
				sh, ppn = shape{4096, 4, 16}, 2
			}
			var out []cellSpec
			for _, net := range []string{"baldur", "fattree"} {
				out = append(out, cellSpec{kind: openLoop, net: net, pattern: "random_permutation", load: 0.5, shape: sh, packets: ppn, shards: 2, seed: seed, slice: longCellSlice})
			}
			return out
		},
	},
	{
		name: "fault_campaign",
		why:  "hundreds of tiny audited cells with fault scripts and tenant traffic: cell set-up, barrier slicing and audit checkpoints dominate",
		cells: func(seed uint64, short bool) []cellSpec {
			seeds := 8
			if short {
				seeds = 2
			}
			spec := &faultCampaign
			scripts := append([]faults.ScriptSpec{{Name: "baseline"}}, spec.Scripts...)
			var out []cellSpec
			for _, net := range spec.Grid.Nets {
				for _, k := range spec.Grid.Shards {
					for s := seed; s < seed+uint64(seeds); s++ {
						for _, script := range scripts {
							out = append(out, cellSpec{kind: campaign, net: net, shards: k, seed: s, script: script})
						}
					}
				}
			}
			return out
		},
	},
}

func workloadByName(name string) (*workloadDef, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// passResult is one execution of a workload's cell list, cells one at a
// time, in one process.
type passResult struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Traced   bool               `json:"traced"`
	WallS    float64            `json:"wall_s"`
	PeakRSS  uint64             `json:"peak_rss_bytes"`
	MaxNodes int                `json:"max_nodes"`
	Cells    []cellResult       `json:"cells"`
	SelfS    map[string]float64 `json:"self_s,omitempty"`
	Err      string             `json:"err,omitempty"`
	// RefNS is the reference kernel's mean time per operation during
	// the pass; WallS and the cells' host times are measured seconds.
	RefNS float64 `json:"ref_ns"`
}

// runPass runs every cell of the workload once. On traced passes it also
// returns the tracer holding the spans for export.
func runPass(w *workloadDef, seed uint64, short, traced bool) (passResult, *tracer) {
	specs := w.cells(seed, short)
	tr := newTracer(traced)
	p := passResult{Workload: w.name, Seed: seed, Traced: traced, Cells: make([]cellResult, 0, len(specs))}
	tr.ref = newRefClock()
	ws := tr.begin("workload", -1)
	for i := range specs {
		// Each cell starts from a collected heap, so the peak RSS is the
		// largest cell's own footprint rather than an accident of when the
		// collector last ran, and no cell pays for its predecessor's
		// garbage. The collections fall between cell spans and are not
		// part of the wall time.
		runtime.GC()
		tr.checkpoint()
		c := runCell(&specs[i], i, tr)
		p.WallS += c.WallS
		p.Cells = append(p.Cells, c)
	}
	tr.end(ws)
	tr.ref.sample()
	p.RefNS = tr.ref.nsPerOp()
	p.PeakRSS = prof.PeakRSSBytes()
	for _, c := range p.Cells {
		p.MaxNodes = max(p.MaxNodes, c.Nodes)
	}
	if traced {
		p.SelfS = tr.selfSeconds()
	}
	return p, tr
}
