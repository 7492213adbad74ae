// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation, each reproducing the corresponding rows/series
// (Table IV, Table V, Fig 5 is covered by internal/switchckt tests, Fig 6,
// Fig 7, Fig 8, Fig 9, Fig 10, plus the Sec IV-E drop-model, Sec IV-F
// reliability, Sec IV-G packaging and Sec VII AWGR analyses).
//
// Each runner is parameterized by a Scale: Quick (CI-sized: fewer nodes and
// packets; shapes and orderings preserved) or Full (the paper's 1,024-node /
// 10,000-packets-per-node configuration — minutes of CPU).
package exp

import (
	"fmt"
	"math/bits"
	"strings"

	"baldur/internal/check"
	"baldur/internal/check/harness"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
	"baldur/internal/traffic"
	"baldur/internal/twin"
)

// Scale selects the experiment size.
type Scale struct {
	Name           string
	Nodes          int // Baldur / electrical MB / ideal node count (a power of two >= 4)
	PacketsPerNode int
	DragonflyP     int // dragonfly parameter p
	FatTreeK       int // fat-tree radix
	TraceIters     int // HPC workload iterations
	Seed           uint64
	// MaxSimTime bounds a single run's virtual time as a safety net
	// against saturation-induced crawl (0 = 1 s of virtual time).
	MaxSimTime sim.Duration
	// Shards selects the conservative-parallel shard count for each
	// simulated network (0 or 1: serial). Results are bit-identical for
	// any value; sharding only changes wall-clock time.
	Shards int
	// Audit, when non-nil, attaches the invariant-audit layer to every
	// auditable network a runner builds and fails the run on the first
	// checkpoint with conservation violations. The ideal network is
	// analytic and is never audited. Auditing never changes results — only
	// verifies them — so any Shards value stays bit-identical.
	Audit *check.Options
	// Telemetry, when non-nil, attaches the observability layer (metric
	// sampling, flight recorder, watch dashboard) to every instrumented
	// network a runner builds and writes the configured exports when the
	// cell finishes. The sampled series is bit-identical for any Shards
	// value. The ideal network is analytic and stays uninstrumented.
	Telemetry *telemetry.Options
	// TelemetryPerCell tags telemetry output paths with the cell name
	// (network-pattern-load) so multi-cell runners (Fig 6/7) do not
	// overwrite one file per cell. cmd/figures sets this.
	TelemetryPerCell bool
	// Watchdog is the trace-replay progress watchdog window: if no rank
	// advances for this much simulated time while events keep executing,
	// the replay stops with a stuck-rank report (0 disables).
	Watchdog sim.Duration
	// Fidelity selects the model tier: packet (the event-level engine,
	// the default) or twin (the analytical flow-level model in
	// internal/twin — microseconds per cell, calibrated against the packet
	// engine by internal/check/calib). The twin answers only the open-loop
	// cells inside its validity envelope (twin.InEnvelope); every other
	// cell, of any kind, runs on the packet engine.
	Fidelity netsim.Fidelity
	// MaxParallel caps the number of simulation cells resident at once in
	// the fan-out runners (0: GOMAXPROCS, the historical behaviour). Every
	// concurrent cell holds a full network instance, so the large-memory
	// scales set this to keep peak RSS at one-or-two networks' worth
	// instead of multiplying it by the CPU count.
	MaxParallel int
}

// Quick is the CI-sized scale. Node counts are matched as closely as the
// three topologies allow (64 / 72 / 54), so cross-network comparisons are
// not skewed by size.
var Quick = Scale{
	Name:           "quick",
	Nodes:          64,
	PacketsPerNode: 100,
	DragonflyP:     2, // 72 nodes
	FatTreeK:       6, // 54 hosts
	TraceIters:     2,
	Seed:           1,
}

// Medium sits between Quick and Full: 256 / 342 / 250 nodes.
var Medium = Scale{
	Name:           "medium",
	Nodes:          256,
	PacketsPerNode: 400,
	DragonflyP:     3,  // 342 nodes
	FatTreeK:       10, // 250 hosts
	TraceIters:     3,
	Seed:           1,
}

// Full is the paper's configuration: 1,024-node Baldur/MB, 1,056-node
// dragonfly, 1,024-host fat-tree, 10,000 packets per node.
var Full = Scale{
	Name:           "full",
	Nodes:          1024,
	PacketsPerNode: 10000,
	DragonflyP:     4,
	FatTreeK:       16,
	TraceIters:     4,
	Seed:           1,
}

// Mid is the shard-invariance stress scale: 8,192-node Baldur/MB, a
// 9,702-node dragonfly and an 8,192-host fat-tree with a light packet
// budget. Big enough that SoA-layout or sharding regressions that hide at
// 1K nodes surface, small enough for CI (seconds per cell).
var Mid = Scale{
	Name:           "mid",
	Nodes:          8192,
	PacketsPerNode: 50,
	DragonflyP:     7,  // 9,702 nodes
	FatTreeK:       32, // 8,192 hosts
	TraceIters:     1,
	Seed:           1,
	MaxParallel:    2,
}

// Datacenter is the memory-diet scale the paper's Section VI power/cost
// sweeps reach analytically: 131,072-node Baldur/MB and a 128,000-host
// fat-tree, simulated at packet level. The packet budget is deliberately
// tiny — the point of the preset is that per-node *state* (NICs, routers,
// tables, collectors) fits in bounded RSS, which is independent of how
// many packets flow. One cell runs at a time (MaxParallel 1) so peak RSS
// is one network's worth.
var Datacenter = Scale{
	Name:           "datacenter",
	Nodes:          131072,
	PacketsPerNode: 8,
	DragonflyP:     13, // 114,582 nodes
	FatTreeK:       80, // 128,000 hosts
	TraceIters:     1,
	Seed:           1,
	MaxParallel:    1,
}

// Scales lists the named presets from smallest to largest.
var Scales = []*Scale{&Quick, &Medium, &Full, &Mid, &Datacenter}

// ScaleByName returns the named preset (quick, medium, full, mid,
// datacenter) by value, so callers can override fields freely.
func ScaleByName(name string) (Scale, bool) {
	for _, sc := range Scales {
		if sc.Name == name {
			return *sc, true
		}
	}
	return Scale{}, false
}

// ScaleNames returns the preset names in Scales order, for flag help.
func ScaleNames() []string {
	out := make([]string, len(Scales))
	for i, sc := range Scales {
		out[i] = sc.Name
	}
	return out
}

func (sc Scale) maxSim() sim.Time {
	if sc.MaxSimTime == 0 {
		return sim.Time(1 * sim.Second)
	}
	return sim.Time(sc.MaxSimTime)
}

// NetworkNames lists the evaluated networks in the paper's order.
var NetworkNames = []string{"baldur", "multibutterfly", "dragonfly", "fattree", "ideal"}

// build constructs one named network at the given scale through the one
// network builder, harness.Build. Patterns are generated per network because
// node counts differ slightly (1,024 vs 1,056), exactly as in the paper.
// Protocol fields stay zero (the model defaults), and zero dragonfly p or
// fat-tree k select the electrical models' defaults.
func build(name string, sc Scale) (netsim.Network, error) {
	if sc.Nodes < 4 || sc.Nodes&(sc.Nodes-1) != 0 {
		return nil, fmt.Errorf("exp: nodes = %d, want a power of two >= 4", sc.Nodes)
	}
	net, _, err := harness.Build(check.FuzzConfig{
		Net:        name,
		NodesExp:   bits.TrailingZeros(uint(sc.Nodes)),
		DragonflyP: sc.DragonflyP,
		FatTreeK:   sc.FatTreeK,
		FaultStage: -1,
		Seed:       sc.Seed,
	}, sc.Shards)
	return net, err
}

// buildWithPattern builds the named network and generates the named
// pattern sized for it.
func buildWithPattern(network, pattern string, sc Scale) (netsim.Network, *traffic.Pattern, error) {
	net, err := build(network, sc)
	if err != nil {
		return nil, nil, err
	}
	pat, err := patternFor(pattern, net.NumNodes(), sc)
	return net, pat, err
}

// cell is one packet-level simulation: a built network, the traffic source
// that drives it, and the probes attached around the run. Every cell kind —
// open loop, ping-pong, workload, latency profile, HPC trace replay and
// fault campaign — runs through cell.run, so a probe wired there reaches all
// of them.
type cell struct {
	net   netsim.Network
	label string                     // names the cell in telemetry and errors
	col   *netsim.Collector          // caller-owned: series runners reuse one across loads
	start func(netsim.Network) error // attaches the traffic source; may set timeline
	tel   *telemetry.Options         // nil: no telemetry
	audit *check.Options             // nil: no auditor
	// strict fails the cell on any audit violation; campaign cells record
	// violations in their report instead.
	strict bool
	// timeline is applied at barriers: a fault script, or a trace replay's
	// progress watchdog (nil: none).
	timeline netsim.Timeline
	// drive carries the deadline, slice width and observer; run attaches
	// the telemetry layer and auditor to it.
	drive  netsim.DriveOptions
	export func(*telemetry.Telemetry) error // nil: telemetry is not exported

	// Set by run: whether events remained queued at the deadline, and the
	// span audit when one was armed.
	more  bool
	spans *check.SpanAudit
}

// run executes the cell: telemetry → collector → traffic → audit → span
// audit → drive → span verify, then fold (where the caller reads its
// results) and export. The attach order is fixed because delivery callbacks
// run in registration order. The span audit is armed whenever an audited
// cell also traces packet lifecycles. An error from the drive (the timeline
// failed) is returned after the cell still verified, folded and exported.
func (c *cell) run(fold func() error) error {
	if c.tel != nil {
		c.drive.Tel = attachTelemetry(c.net, *c.tel, c.label)
	}
	c.col.Attach(c.net)
	if err := c.start(c.net); err != nil {
		return err
	}
	if au, ok := c.net.(netsim.Audited); ok && c.audit != nil {
		c.drive.Aud = check.New(*c.audit)
		au.AttachAudit(c.drive.Aud)
	}
	tel, aud := c.drive.Tel, c.drive.Aud
	if aud != nil && tel != nil && tel.TraceEvery() > 0 {
		c.spans = netsim.AttachSpanAudit(c.net)
	}
	var driveErr error
	c.more, driveErr = netsim.Drive(c.net, c.timeline, c.drive)
	if c.spans != nil {
		c.spans.VerifyInto(aud, tel.Rec.Records(), tel.Rec.Overwritten() > 0)
	}
	if c.strict && aud != nil {
		if err := aud.Err(); err != nil {
			return fmt.Errorf("exp: %s: %w", c.label, err)
		}
	}
	if err := fold(); err != nil {
		return err
	}
	if tel != nil && c.export != nil {
		if err := c.export(tel); err != nil {
			return err
		}
	}
	return driveErr
}

// point folds the cell into the fields every packet-tier Point shares.
func (c *cell) point(network string) Point {
	l := c.net.Ledger()
	return Point{
		Network:  network,
		AvgNS:    c.col.AvgNS(),
		TailNS:   c.col.TailNS(),
		DropRate: l.DataDropRate(),
		Finished: !c.more,
		Events:   c.net.Events(),
	}
}

// newCell returns a cell of net configured from the scale: its telemetry
// and audit options and safety horizon. Any audit violation fails
// the cell, and telemetry is exported under label when the scale runs many
// cells.
func (sc Scale) newCell(net netsim.Network, col *netsim.Collector, label string, start func(netsim.Network) error) *cell {
	return &cell{
		net: net, label: label, col: col, start: start,
		tel: sc.Telemetry, audit: sc.Audit, strict: true,
		drive:  netsim.DriveOptions{Deadline: sc.maxSim()},
		export: func(tel *telemetry.Telemetry) error { return writeTelemetry(tel, sc, label) },
	}
}

// attachTelemetry builds and attaches a telemetry layer for net when the
// network supports instrumentation (the ideal network does not). label
// names the run for watch lines and per-cell paths unless opts has one.
func attachTelemetry(net netsim.Network, opts telemetry.Options, label string) *telemetry.Telemetry {
	in, ok := net.(netsim.Instrumented)
	if !ok {
		return nil
	}
	if opts.Label == "" {
		opts.Label = label
	}
	tel := telemetry.New(opts, net.NumShards())
	in.AttachTelemetry(tel)
	return tel
}

// writeTelemetry exports a cell's telemetry, tagging output paths when the
// scale runs many cells.
func writeTelemetry(tel *telemetry.Telemetry, sc Scale, cell string) error {
	if tel == nil {
		return nil
	}
	tag := ""
	if sc.TelemetryPerCell {
		tag = cell
	}
	return tel.WriteOutputs(tag)
}

// patternFor generates a named traffic pattern sized for the given network.
func patternFor(pattern string, nodes int, sc Scale) (*traffic.Pattern, error) {
	// Dragonfly group size at this scale (for group_permutation and
	// ping_pong2 the paper constructs pairs from dragonfly groups and
	// replays them on every network).
	group := 2 * sc.DragonflyP * sc.DragonflyP // a*p
	switch pattern {
	case "random_permutation":
		return traffic.RandomPermutation(nodes, sc.Seed+10), nil
	case "transpose":
		return traffic.Transpose(nodes), nil
	case "bisection":
		return traffic.Bisection(nodes, sc.Seed+11), nil
	case "group_permutation":
		return traffic.GroupPermutation(nodes, group, sc.Seed+12), nil
	case "hotspot":
		return traffic.Hotspot(nodes, 0), nil
	case "ping_pong1":
		return traffic.PingPongPairs1(nodes, sc.Seed+13), nil
	case "ping_pong2":
		return traffic.PingPongPairs2(nodes, group, sc.Seed+14), nil
	}
	return nil, fmt.Errorf("exp: unknown pattern %q", pattern)
}

// Fig6Patterns are the open-loop patterns of Fig 6.
var Fig6Patterns = []string{"random_permutation", "transpose", "bisection", "group_permutation"}

// Fig6Loads are the swept input loads.
var Fig6Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// Point is one measurement: a network at one load.
type Point struct {
	Network  string
	Load     float64
	AvgNS    float64
	TailNS   float64
	DropRate float64 // Baldur only; 0 for lossless networks
	// ThroughputPPS is the delivered-packet rate over the span from start
	// to the last delivery (virtual time). Both fidelity tiers report it;
	// it is the throughput metric the twin calibration gates on.
	ThroughputPPS float64
	Finished      bool   // false if the safety horizon cut the run short
	Events        uint64 // simulator events executed; 0 for a twin-modelled cell
}

// OpenLoopDetail is one open-loop cell's Point plus what the run reports
// beside it.
type OpenLoopDetail struct {
	Point
	// Epochs counts the lockstep synchronization epochs the sharded engine
	// executed (0 for serial and twin-tier runs). Epochs depend on the shard
	// count, so they are kept beside the Point, which stays bit-identical
	// across shard counts.
	Epochs uint64
	// Injected counts the unique data packets the cell handed to the
	// network (its ledger's Injected; 0 for twin-tier runs).
	Injected uint64
	// Telemetry is the cell's telemetry layer — the sampled series, flight
	// records and registry totals (nil when sc.Telemetry is nil or the
	// network is uninstrumented).
	Telemetry *telemetry.Telemetry
}

// openLoop returns the open-loop traffic source of one cell.
func openLoop(pat *traffic.Pattern, load float64, sc Scale) func(netsim.Network) error {
	return func(net netsim.Network) error {
		ol := traffic.OpenLoop{
			Pattern:        pat,
			Load:           load,
			PacketsPerNode: sc.PacketsPerNode,
			Seed:           sc.Seed + 100,
		}
		ol.Start(net)
		return nil
	}
}

// pingPong returns the closed-loop ping-pong traffic source of one cell.
func pingPong(pat *traffic.Pattern, sc Scale) func(netsim.Network) error {
	return func(net netsim.Network) error {
		pp := traffic.PingPong{Pattern: pat, Rounds: sc.PacketsPerNode}
		pp.Start(net)
		return nil
	}
}

// runOpenLoopOn runs ol on net as one open-loop cell of sc and returns its
// Point. Table V and the ablations use it for the network variants that
// harness.Build's name switch does not cover and for their own pattern
// seeds; the cell honours sc's shards (through the variant's config),
// audit, telemetry and horizon like every other cell.
func (sc Scale) runOpenLoopOn(net netsim.Network, label string, ol traffic.OpenLoop) (Point, error) {
	var col netsim.Collector
	c := sc.newCell(net, &col, label, func(n netsim.Network) error {
		ol.Start(n)
		return nil
	})
	var p Point
	err := c.run(func() error {
		p = c.point(label)
		return nil
	})
	return p, err
}

// runOpenLoopCell measures one (network, pattern, load) cell into col,
// whose sample and histogram allocations are reused across calls (series
// runners sweep five loads through one collector). Under the twin tier a
// cell inside the twin's validity envelope is answered analytically; any
// other cell runs on the packet engine, so its Point carries Events > 0. It
// also returns the network (nil for a twin-answered cell).
func runOpenLoopCell(col *netsim.Collector, network, pattern string, load float64, sc Scale) (OpenLoopDetail, netsim.Network, error) {
	if sc.Fidelity == netsim.FidelityTwin && twin.InEnvelope(network, pattern, load) {
		p, err := twinOpenLoopCell(network, pattern, load, sc)
		return OpenLoopDetail{Point: p}, nil, err
	}
	net, pat, err := buildWithPattern(network, pattern, sc)
	if err != nil {
		return OpenLoopDetail{}, nil, err
	}
	c := sc.newCell(net, col, fmt.Sprintf("%s-%s-%g", network, pattern, load), openLoop(pat, load, sc))
	var d OpenLoopDetail
	err = c.run(func() error {
		d.Point = c.point(network)
		d.Load = load
		if last := col.LastDelivery(); last > 0 {
			d.ThroughputPPS = float64(col.Delivered()) / sim.Duration(last).Seconds()
		}
		d.Epochs = net.Epochs()
		d.Injected = net.Ledger().Injected
		d.Telemetry = c.drive.Tel
		return nil
	})
	return d, net, err
}

// twinOpenLoopCell answers one open-loop cell from the analytical tier:
// same pattern generators, same sizing, no event simulation. Finished
// mirrors the packet tier's safety horizon: the run finishes unless the
// twin's makespan estimate (injection span plus backlog drain) exceeds
// MaxSimTime — saturation alone does not cut a packet run short.
func twinOpenLoopCell(network, pattern string, load float64, sc Scale) (Point, error) {
	tc := twin.Config{
		Nodes:          sc.Nodes,
		PacketsPerNode: sc.PacketsPerNode,
		Seed:           sc.Seed,
	}
	pat, err := patternFor(pattern, sc.Nodes, sc)
	if err != nil {
		return Point{}, err
	}
	tp, err := twin.EvalOpenLoop(network, pat, load, tc)
	if err != nil {
		return Point{}, err
	}
	return Point{
		Network:       network,
		Load:          load,
		AvgNS:         tp.AvgNS,
		TailNS:        tp.TailNS,
		DropRate:      tp.DropRate,
		ThroughputPPS: tp.ThroughputPPS,
		Finished:      tp.MakespanS <= sim.Duration(sc.maxSim()).Seconds(),
	}, nil
}

// RunOpenLoop measures one (network, pattern, load) cell.
func RunOpenLoop(network, pattern string, load float64, sc Scale) (Point, error) {
	d, err := RunOpenLoopDetail(network, pattern, load, sc)
	return d.Point, err
}

// RunOpenLoopDetail is RunOpenLoop plus the cell's epoch count and
// telemetry layer.
func RunOpenLoopDetail(network, pattern string, load float64, sc Scale) (OpenLoopDetail, error) {
	var col netsim.Collector
	d, _, err := runOpenLoopCell(&col, network, pattern, load, sc)
	return d, err
}

// RunPingPong measures a closed-loop ping-pong workload on one network. It
// runs on the packet engine at either fidelity: the closed-loop dependence
// chain is outside the twin's envelope.
func RunPingPong(network, pattern string, sc Scale) (Point, error) {
	net, pat, err := buildWithPattern(network, pattern, sc)
	if err != nil {
		return Point{}, err
	}
	var col netsim.Collector
	c := sc.newCell(net, &col, fmt.Sprintf("%s-%s", network, pattern), pingPong(pat, sc))
	var p Point
	err = c.run(func() error {
		p = c.point(network)
		return nil
	})
	return p, err
}

// renderTable renders rows as a fixed-width text table.
func renderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// CSV renders rows as comma-separated values with a header.
func CSV(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
