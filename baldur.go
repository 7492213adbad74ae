// Package baldur is a from-scratch reproduction of "Baldur: A
// Power-Efficient and Scalable Network Using All-Optical Switches"
// (HPCA 2020): the first all-optical network, built from transistor-laser
// (TL) logic, that performs packet routing entirely in the optical domain.
//
// The package is the public facade over the implementation:
//
//   - the Baldur network simulator (bufferless, clock-less multi-butterfly
//     of 2x2 TL switches with path multiplicity, drops + retransmission +
//     binary exponential backoff),
//   - the electrical baselines the paper compares against (electrical
//     multi-butterfly, dragonfly with adaptive routing, 3-level fat-tree,
//     and the 200 ns ideal network),
//   - the synthetic traffic patterns and Design-Forward-style HPC
//     workloads of the evaluation,
//   - the gate-level TL switch circuit (Fig 4/5) and the clock-less
//     length-based encoding (Sec IV-B),
//   - the analysis models: power vs scale (Fig 8/9), cost (Fig 10),
//     packaging (Sec IV-G), worst-case drop model (Sec IV-E), reliability
//     (Sec IV-F) and the AWGR comparison (Sec VII),
//   - the experiment harness that regenerates every table and figure.
//
// Quickstart:
//
//	net, err := baldur.New(baldur.Config{Nodes: 1024})
//	if err != nil { ... }
//	var col baldur.Collector
//	col.Attach(net)
//	ol := baldur.OpenLoop{
//		Pattern:        baldur.RandomPermutation(1024, 1),
//		Load:           0.7,
//		PacketsPerNode: 1000,
//	}
//	ol.Start(net)
//	if net.Run(baldur.Time(0).Add(10 * baldur.Millisecond)) {
//		// events still queued at the 10 ms horizon
//	}
//	fmt.Printf("avg %.0f ns, p99 %.0f ns, drop %.2f%%\n",
//		col.AvgNS(), col.TailNS(), net.Stats.DataDropRate()*100)
package baldur

import (
	"baldur/internal/core"
	"baldur/internal/elecnet"
	"baldur/internal/exp"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/trace"
	"baldur/internal/traffic"
)

// Core network types.
type (
	// Config parameterizes a Baldur network: size, multiplicity, wiring,
	// line rate and the reliability-protocol knobs. Packet size, host
	// links and switch latency are fixed at the paper's Table V/VI values;
	// the zero value is its 1,024-node configuration.
	Config = core.Config
	// Network is a Baldur network instance.
	Network = core.Network
	// Stats are the counters of one Baldur run.
	Stats = core.Stats
	// Packet is a simulated network packet.
	Packet = netsim.Packet
	// Collector accumulates average/percentile latency statistics.
	Collector = netsim.Collector
	// Interconnect is the interface every simulated network satisfies
	// (Baldur, the electrical baselines, and the ideal network).
	Interconnect = netsim.Network
)

// Time types of the simulation kernel.
type (
	// Time is a virtual-time instant in picoseconds.
	Time = sim.Time
	// Duration is a virtual-time span in picoseconds.
	Duration = sim.Duration
	// EventFunc adapts a function to an event for ScheduleNode.
	EventFunc = sim.EventFunc
)

// Common duration units.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// New builds a Baldur network.
func New(cfg Config) (*Network, error) { return core.New(cfg) }

// Baseline networks. Their configs set size, seed, sharding and (for the
// dragonfly) the routing policy; router latency, buffers, virtual channels
// and link delays are fixed at the paper's Table VI values.
type (
	// MBConfig configures the electrical multi-butterfly baseline.
	MBConfig = elecnet.MBConfig
	// DragonflyConfig configures the dragonfly baseline.
	DragonflyConfig = elecnet.DragonflyConfig
	// FatTreeConfig configures the fat-tree baseline.
	FatTreeConfig = elecnet.FatTreeConfig
)

// NewElectricalMB builds the buffered electrical multi-butterfly baseline.
func NewElectricalMB(cfg MBConfig) (*elecnet.MultiButterfly, error) {
	return elecnet.NewMultiButterfly(cfg)
}

// NewDragonfly builds the dragonfly baseline with adaptive routing.
func NewDragonfly(cfg DragonflyConfig) (*elecnet.Dragonfly, error) {
	return elecnet.NewDragonfly(cfg)
}

// NewFatTree builds the 3-level fat-tree baseline.
func NewFatTree(cfg FatTreeConfig) (*elecnet.FatTree, error) {
	return elecnet.NewFatTree(cfg)
}

// NewIdeal builds the paper's ideal reference network (infinite bandwidth,
// flat 200 ns latency; pass latency 0 for the default).
func NewIdeal(nodes int, latency Duration) *elecnet.Ideal {
	return elecnet.NewIdeal(nodes, latency)
}

// Traffic patterns and drivers (Sec V-A).
type (
	// Pattern maps each source to its destination.
	Pattern = traffic.Pattern
	// OpenLoop injects 512 B packets with exponential inter-arrival at a
	// fraction of the 25 Gbps line rate.
	OpenLoop = traffic.OpenLoop
	// PingPong is the closed-loop request/reply driver (512 B packets).
	PingPong = traffic.PingPong
)

// Pattern constructors.
var (
	RandomPermutation = traffic.RandomPermutation
	Transpose         = traffic.Transpose
	Bisection         = traffic.Bisection
	GroupPermutation  = traffic.GroupPermutation
	Hotspot           = traffic.Hotspot
	PingPongPairs1    = traffic.PingPongPairs1
	PingPongPairs2    = traffic.PingPongPairs2
)

// HPC workload tracing.
type (
	// Workload is a communication trace (one program per rank).
	Workload = trace.Workload
	// Replayer executes a workload on any Interconnect.
	Replayer = trace.Replayer
	// TraceOptions tunes the synthetic workload generators.
	TraceOptions = trace.Options
)

// Workload generators for the four Design-Forward-style applications, and
// the portable text trace format (generate with cmd/tracegen; ReadTrace
// parses external traces, Workload.Save saves generated ones).
var (
	AMG           = trace.AMG
	BigFFT        = trace.BigFFT
	CrystalRouter = trace.CrystalRouter
	FillBoundary  = trace.FillBoundary
	WorkloadNames = trace.Names
	ReadTrace     = trace.Read
)

// NewReplayer wires a workload to a network.
func NewReplayer(net Interconnect, w *Workload) (*Replayer, error) {
	return trace.NewReplayer(net, w)
}

// Experiment harness (one runner per table/figure).
type (
	// Scale selects experiment sizing (QuickScale / MediumScale /
	// FullScale).
	Scale = exp.Scale
	// ExperimentPoint is one (network, load) measurement.
	ExperimentPoint = exp.Point
)

// Experiment scales.
var (
	QuickScale  = exp.Quick
	MediumScale = exp.Medium
	FullScale   = exp.Full
)

// Experiment entry points; see internal/exp for the full set.
var (
	RunOpenLoop = exp.RunOpenLoop
	RunPingPong = exp.RunPingPong
	Fig6        = exp.Fig6
	Fig7        = exp.Fig7
)
