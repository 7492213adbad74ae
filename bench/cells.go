package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"

	"baldur/internal/check"
	"baldur/internal/check/harness"
	"baldur/internal/core"
	"baldur/internal/elecnet"
	"baldur/internal/exp"
	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
	"baldur/internal/workload"

	// Campaign traffic names admission and routing policies; linking the
	// plugin packages registers them.
	_ "baldur/internal/workload/admission"
	_ "baldur/internal/workload/routing"
)

// horizon is the safety bound on one open-loop or ping-pong cell's virtual
// time, the same default exp.Scale applies.
const horizon = sim.Time(1 * sim.Second)

// runSlice is the default virtual-time width of one netsim.Run call in
// open-loop and ping-pong cells; the reference clock samples between calls.
// Run boundaries are full barriers, so slicing leaves every statistic
// unchanged.
const runSlice = 10 * sim.Microsecond

//go:embed workloads/fault_campaign.json
var faultCampaignJSON []byte

// faultCampaign is the parsed campaign behind the fault_campaign workload;
// the benchmark supplies its seeds.
var faultCampaign = func() exp.CampaignSpec {
	spec, err := exp.ParseCampaign(faultCampaignJSON)
	if err != nil {
		panic(err)
	}
	if spec.Workload == nil {
		panic("bench: workloads/fault_campaign.json needs a workload section")
	}
	return spec
}()

type cellKind int

const (
	openLoop cellKind = iota
	pingPong
	campaign
)

// shape sizes the networks of an open-loop or ping-pong cell the way
// exp.Scale does: Baldur and the multi-butterfly take nodes, the dragonfly
// takes p and the fat-tree takes its radix k.
type shape struct {
	nodes, dragonflyP, fatTreeK int
}

// cellSpec is one simulation cell: a network, its traffic and its seed.
type cellSpec struct {
	kind    cellKind
	net     string
	pattern string
	load    float64
	shape   shape
	packets int // open loop: packets per node; ping-pong: rounds
	shards  int
	seed    uint64
	script  faults.ScriptSpec // campaign cells only
	// slice overrides runSlice for cells that run for seconds within a
	// few microseconds of virtual time.
	slice sim.Duration
}

func (c *cellSpec) id() string {
	switch c.kind {
	case openLoop:
		return fmt.Sprintf("%s/%s/%g", c.net, c.pattern, c.load)
	case pingPong:
		return c.net + "/" + c.pattern
	}
	return fmt.Sprintf("%s/k%d/s%d/%s", c.net, c.shards, c.seed, c.script.Name)
}

// pair names the cells that must agree bit for bit across shard counts.
func (c *cellSpec) pair() string {
	if c.kind != campaign {
		return ""
	}
	return fmt.Sprintf("%s/s%d/%s", c.net, c.seed, c.script.Name)
}

// cellResult is one cell's outcome: its fingerprint, the host time spent in
// each layer call, and the exact counts the layers report.
type cellResult struct {
	ID       string          `json:"id"`
	Campaign bool            `json:"campaign,omitempty"`
	Net      string          `json:"net"`
	Nodes    int             `json:"nodes"`
	Shards   int             `json:"shards"`
	Pair     string          `json:"pair,omitempty"`
	FP       json.RawMessage `json:"fp,omitempty"`
	Finished bool            `json:"finished"`
	Err      string          `json:"err,omitempty"`

	// Host seconds. WallS spans the whole cell and SetupS runs from its
	// start to its first netsim.Run/faults.Run call; the others are single
	// layer calls.
	WallS     float64 `json:"wall_s"`
	SetupS    float64 `json:"setup_s"`
	BuildS    float64 `json:"build_s"`
	StartS    float64 `json:"start_s"`
	WorkloadS float64 `json:"workload_s"`
	CheckS    float64 `json:"check_s"`
	RunS      float64 `json:"run_s"`
	FoldS     float64 `json:"fold_s"`
	// HeapBytes is the heap allocated by the constructor (traced passes).
	HeapBytes uint64 `json:"heap_bytes"`

	Events      uint64 `json:"events"`
	Epochs      uint64 `json:"epochs"`
	Delivered   uint64 `json:"delivered"`
	RunCalls    int    `json:"run_calls"`
	Slices      int    `json:"slices"`
	Applied     int    `json:"applied"`
	Checkpoints int    `json:"checkpoints"`
	Flows       uint64 `json:"flows"`
	Rejected    uint64 `json:"rejected"`
}

// campaignFP is a campaign cell's fingerprint: harness.Fingerprint with the
// collector fields filled, plus the availability and admission ledgers.
type campaignFP struct {
	harness.Fingerprint
	UnavailUS       float64
	UnavailWindows  int
	FaultEvents     int
	Checkpoints     int
	Arrived         uint64
	Admitted        uint64
	Rejected        uint64
	AdmittedPackets uint64
}

// runCell runs one cell inside a "cell" span. A panic inside the simulator
// is recovered and reported as the cell's failure.
func runCell(c *cellSpec, i int, tr *tracer) (res cellResult) {
	res = cellResult{ID: c.id(), Campaign: c.kind == campaign, Net: c.net, Shards: max(c.shards, 1), Pair: c.pair()}
	depth := len(tr.open)
	cs := tr.begin("cell", i)
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
			for len(tr.open) > depth {
				tr.end(tr.open[len(tr.open)-1])
			}
			return
		}
		res.WallS = tr.end(cs)
	}()
	var err error
	if c.kind == campaign {
		err = runCampaignCell(c, i, cs, tr, &res)
	} else {
		err = runNetCell(c, i, cs, tr, &res)
	}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// constructor names the layer call that builds c's network.
func (c *cellSpec) constructor() string {
	switch c.net {
	case "baldur":
		return "core.New"
	case "multibutterfly":
		return "elecnet.NewMultiButterfly"
	case "dragonfly":
		return "elecnet.NewDragonfly"
	case "fattree":
		return "elecnet.NewFatTree"
	}
	return "elecnet.NewIdeal"
}

// build calls the network's constructor with the arguments exp's cell
// runners use and returns a reader of Baldur's drop ledger (zero on the
// lossless networks).
func (c *cellSpec) build() (netsim.Network, func() (drops, attempts uint64), error) {
	zero := func() (uint64, uint64) { return 0, 0 }
	switch c.net {
	case "baldur":
		n, err := core.New(core.Config{Nodes: c.shape.nodes, Seed: c.seed, Shards: c.shards})
		if err != nil {
			return nil, nil, err
		}
		return n, func() (uint64, uint64) { return n.Stats.DataDrops, n.Stats.DataAttempts }, nil
	case "multibutterfly":
		n, err := elecnet.NewMultiButterfly(elecnet.MBConfig{Nodes: c.shape.nodes, Multiplicity: 4, Seed: c.seed, Shards: c.shards})
		return n, zero, err
	case "dragonfly":
		n, err := elecnet.NewDragonfly(elecnet.DragonflyConfig{P: c.shape.dragonflyP, Seed: c.seed, Shards: c.shards})
		return n, zero, err
	case "fattree":
		n, err := elecnet.NewFatTree(elecnet.FatTreeConfig{K: c.shape.fatTreeK, Shards: c.shards})
		return n, zero, err
	case "ideal":
		return elecnet.NewIdeal(c.shape.nodes, 0), zero, nil
	}
	return nil, nil, fmt.Errorf("unknown network %q", c.net)
}

// trafficPattern generates c's pattern for a network of the given size with
// the seed offsets exp uses, so every network sees the paper's pairs.
func (c *cellSpec) trafficPattern(nodes int) (*traffic.Pattern, error) {
	group := 2 * c.shape.dragonflyP * c.shape.dragonflyP
	switch c.pattern {
	case "random_permutation":
		return traffic.RandomPermutation(nodes, c.seed+10), nil
	case "transpose":
		return traffic.Transpose(nodes), nil
	case "bisection":
		return traffic.Bisection(nodes, c.seed+11), nil
	case "group_permutation":
		return traffic.GroupPermutation(nodes, group, c.seed+12), nil
	case "ping_pong1":
		return traffic.PingPongPairs1(nodes, c.seed+13), nil
	}
	return nil, fmt.Errorf("unknown pattern %q", c.pattern)
}

// timedBuild calls build inside a span named after the constructor and, on
// traced passes, records the heap the constructor allocated.
func timedBuild(tr *tracer, name string, i int, res *cellResult, build func() error) error {
	var before, after runtime.MemStats
	if tr.fine {
		runtime.ReadMemStats(&before)
	}
	s := tr.begin(name, i)
	err := build()
	res.BuildS = tr.end(s)
	if tr.fine {
		runtime.ReadMemStats(&after)
		res.HeapBytes = after.TotalAlloc - before.TotalAlloc
	}
	return err
}

// runNetCell drives an open-loop or ping-pong cell the way exp.RunOpenLoop
// and exp.RunPingPong do, without telemetry or audits, and fingerprints it
// as the exp.Point those functions return.
func runNetCell(c *cellSpec, i, cs int, tr *tracer, res *cellResult) error {
	var net netsim.Network
	var drops func() (uint64, uint64)
	err := timedBuild(tr, c.constructor(), i, res, func() (err error) {
		net, drops, err = c.build()
		return err
	})
	if err != nil {
		return err
	}
	res.Nodes = net.NumNodes()
	var col netsim.Collector
	s := tr.begin("netsim.Collector.Attach", i)
	col.Attach(net)
	tr.end(s)

	name := "traffic.OpenLoop.Start"
	if c.kind == pingPong {
		name = "traffic.PingPong.Start"
	}
	s = tr.begin(name, i)
	pat, err := c.trafficPattern(res.Nodes)
	if err != nil {
		tr.end(s)
		return err
	}
	if c.kind == pingPong {
		pp := traffic.PingPong{Pattern: pat, Rounds: c.packets}
		pp.Start(net)
	} else {
		ol := traffic.OpenLoop{Pattern: pat, Load: c.load, PacketsPerNode: c.packets, Seed: c.seed + 100}
		ol.Start(net)
	}
	res.StartS = tr.end(s)

	run := tr.begin("run", i)
	res.SetupS = (tr.spans[run].Start - tr.spans[cs].Start).Seconds()
	slice := runSlice
	if c.slice > 0 {
		slice = c.slice
	}
	more := true
	for t := net.Engine().Now().Add(slice); more; t = t.Add(slice) {
		if t > horizon {
			t = horizon
		}
		tr.checkpoint()
		s := -1
		if tr.fine {
			s = tr.begin("netsim.Run", i)
		}
		more = netsim.Run(net, t)
		if tr.fine {
			tr.end(s)
		}
		res.RunCalls++
		if t == horizon {
			break
		}
	}
	res.RunS = tr.end(run)

	s = tr.begin("fold", i)
	p := exp.Point{
		Network:  c.net,
		AvgNS:    col.AvgNS(),
		TailNS:   col.TailNS(),
		Finished: !more,
		Events:   netsim.Events(net),
	}
	if c.kind == openLoop {
		p.Load = c.load
		if last := col.LastDelivery(); last > 0 {
			p.ThroughputPPS = float64(col.Delivered()) / sim.Duration(last).Seconds()
		}
	}
	if d, attempts := drops(); attempts > 0 {
		p.DropRate = float64(d) / float64(attempts)
	}
	res.Delivered = col.Delivered()
	res.FoldS = tr.end(s)

	res.Events = p.Events
	res.Epochs = netsim.Epochs(net)
	res.Finished = p.Finished
	res.FP, err = json.Marshal(p)
	return err
}

// runCampaignCell drives one fault-campaign cell the way exp.RunCampaign
// runs its cells (audit on, workload traffic, barrier-sliced faults.Run with
// the availability observer), and checks the cell's ledgers.
func runCampaignCell(c *cellSpec, i, cs int, tr *tracer, res *cellResult) error {
	spec := &faultCampaign
	compiled, err := c.script.Compile(c.seed)
	if err != nil {
		return err
	}
	cfg := check.FuzzConfig{
		Net: c.net, NodesExp: spec.Grid.NodesExp[0], LoadPct: spec.Grid.LoadsPct[0],
		PacketsPerNode: spec.Grid.PacketsPerNode,
		MaxAttempts:    spec.MaxAttempts,
		FaultStage:     -1,
		Seed:           c.seed,
	}.Canon()
	var net netsim.Network
	var read func() harness.Fingerprint
	err = timedBuild(tr, "harness.Build", i, res, func() (err error) {
		net, read, err = harness.Build(cfg, c.shards)
		return err
	})
	if err != nil {
		return err
	}
	res.Nodes = net.NumNodes()
	var col netsim.Collector
	s := tr.begin("netsim.Collector.Attach", i)
	col.Attach(net)
	tr.end(s)

	s = tr.begin("workload.Attach", i)
	ws := *spec.Workload
	if ws.Seed == 0 {
		ws.Seed = 1
	}
	ws.Seed += c.seed
	drv, err := workload.New(ws)
	if err == nil {
		err = drv.Attach(net)
	}
	res.WorkloadS = tr.end(s)
	if err != nil {
		return err
	}

	s = tr.begin("check.AttachAudit", i)
	aud := check.New(check.Options{})
	net.(netsim.Audited).AttachAudit(aud)
	res.CheckS = tr.end(s)

	var fp campaignFP
	var prevDelivered uint64
	var prevAt sim.Time
	inWindow := false
	deadline := sim.Time(0).Add(sim.Microseconds(spec.HorizonUS))
	run := tr.begin("faults.Run", i)
	res.SetupS = (tr.spans[run].Start - tr.spans[cs].Start).Seconds()
	slice := -1
	if tr.fine {
		slice = tr.begin("faults.slice", i)
	}
	ctrl := faults.NewController(compiled)
	more, err := faults.Run(net, ctrl, faults.RunOptions{
		Deadline: deadline,
		Interval: sim.Microseconds(spec.SliceUS),
		Aud:      aud,
		Observe: func(at sim.Time, drained bool) {
			res.Slices++
			if tr.fine {
				tr.end(slice)
			}
			tr.checkpoint()
			if tr.fine {
				slice = tr.begin("faults.slice", i)
			}
			f := read()
			outstanding := int64(f.Injected) - int64(f.Delivered) - int64(f.GaveUp) - int64(f.Dropped)
			if f.Delivered == prevDelivered && outstanding > 0 {
				fp.UnavailUS += sim.Duration(at-prevAt).Seconds() * 1e6
				if !inWindow {
					fp.UnavailWindows++
					inWindow = true
				}
			} else {
				inWindow = false
			}
			prevDelivered, prevAt = f.Delivered, at
		},
	})
	if tr.fine {
		tr.end(slice)
	}
	res.RunS = tr.end(run)
	if err != nil {
		return err
	}

	s = tr.begin("fold", i)
	fp.Fingerprint = read()
	fp.CollectorDelivered = col.Delivered()
	fp.Samples = col.Samples()
	fp.AvgNS = col.AvgNS()
	fp.TailNS = col.TailNS()
	fp.Events = netsim.Events(net)
	fp.Finished = !more
	fp.Checkpoints = aud.Checkpoints()
	fp.Arrived, fp.Admitted, fp.Rejected, fp.AdmittedPackets = drv.Totals()
	res.FoldS = tr.end(s)

	res.RunCalls = res.Slices
	res.Applied = ctrl.Applied()
	fp.FaultEvents = res.Applied
	res.Checkpoints = fp.Checkpoints
	res.Events = fp.Events
	res.Epochs = netsim.Epochs(net)
	res.Delivered = fp.CollectorDelivered
	res.Flows, res.Rejected = fp.Arrived, fp.Rejected
	res.Finished = fp.Finished
	res.FP, err = json.Marshal(fp)
	if err != nil {
		return err
	}

	if v := aud.Violations(); len(v) > 0 {
		return fmt.Errorf("%d audit violation(s); first: %s", len(v), v[0].String())
	}
	if fp.Checkpoints == 0 {
		return fmt.Errorf("auditor executed no checkpoints")
	}
	if fp.Arrived != fp.Admitted+fp.Rejected {
		return fmt.Errorf("admission ledger: arrived %d != admitted %d + rejected %d", fp.Arrived, fp.Admitted, fp.Rejected)
	}
	if incast := incastPackets(compiled, res.Nodes, deadline); fp.Finished && fp.Injected != fp.AdmittedPackets+incast {
		return fmt.Errorf("conservation: injected %d != admitted packets %d + incast packets %d", fp.Injected, fp.AdmittedPackets, incast)
	}
	return nil
}

// incastPackets counts the packets the script's incast storms inject before
// the deadline, with the clamping faults.Controller applies.
func incastPackets(s faults.Script, nodes int, deadline sim.Time) uint64 {
	var n uint64
	for _, ev := range s.Events {
		if ev.Action != faults.StartIncast || ev.At > deadline {
			continue
		}
		n += uint64(min(max(ev.Count, 1), nodes-1) * max(ev.Packets, 1))
	}
	return n
}
