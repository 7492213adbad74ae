package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"baldur/internal/check"
	"baldur/internal/check/harness"
	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
	"baldur/internal/workload"
)

// CampaignGrid spans the configuration axes of a campaign. Empty slices take
// a single-value default; configurations are canonicalized through
// check.FuzzConfig.Canon, so cells stay within the fuzz harness's bounds and
// every cell is a configuration the differential fuzzer could also reach.
type CampaignGrid struct {
	Nets           []string `json:"nets,omitempty"`
	NodesExp       []int    `json:"nodes_exp,omitempty"`
	LoadsPct       []int    `json:"loads_pct,omitempty"`
	PacketsPerNode int      `json:"packets_per_node,omitempty"`
	Shards         []int    `json:"shards,omitempty"`
}

// CampaignSpec is the declarative form of a scenario campaign: a config grid
// crossed with seeds and fault scripts. Every (config, seed) cell first runs
// fault-free as its own baseline; each script's cell is then reported
// relative to that baseline (tail inflation, retransmission amplification).
type CampaignSpec struct {
	Name    string              `json:"name"`
	Grid    CampaignGrid        `json:"grid"`
	Seeds   []uint64            `json:"seeds,omitempty"`
	Scripts []faults.ScriptSpec `json:"scripts"`
	// HorizonUS bounds each cell's virtual time in microseconds (default
	// 500, the fuzz harness horizon).
	HorizonUS float64 `json:"horizon_us,omitempty"`
	// SliceUS sets the barrier slice width in microseconds (default: the
	// audit interval, 10µs). It bounds the resolution of the
	// unavailability-window measurement; campaigns whose workloads drain in
	// a few microseconds want sub-microsecond slices.
	SliceUS float64 `json:"slice_us,omitempty"`
	// Audit attaches the invariant auditor to every cell; violations fail
	// the campaign (Report.Err).
	Audit bool `json:"audit,omitempty"`
	// MaxAttempts caps baldur's per-packet attempts so cells with dead
	// switches or severed links drain instead of retransmitting forever.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// TraceDir, when set, writes one Perfetto trace per cell into the
	// directory (file name: the cell id with "/" → "-", plus ".json"). The
	// trace carries the cell's flight records, the script's fault events as
	// instant markers, and every measured unavailability window as a shaded
	// region on a dedicated availability track.
	TraceDir string `json:"trace_dir,omitempty"`
	// TraceSample additionally captures full lifecycle span chains for 1 in
	// N packets (telemetry.Options.TraceSample). With Audit set, the chains
	// of every witnessed traced delivery are verified against the stats
	// latency (span sums must match exactly); drift fails the campaign.
	TraceSample int `json:"trace_sample,omitempty"`
	// FlightRecords sizes each shard's flight-recorder ring when tracing is
	// enabled (default 1<<17). Undersized rings drop the oldest records —
	// visible in the trace_dropped_records counter and a WARN line.
	FlightRecords int `json:"flight_records,omitempty"`
	// Workload, when set, replaces the open-loop random-permutation traffic
	// of every cell with the multi-tenant service workload: tenant flows
	// are generated, admitted and packetized by internal/workload, and the
	// availability/fingerprint machinery observes them like any other
	// traffic. The workload seed is offset by each cell's seed so seeds
	// sweep tenant arrival streams the way they sweep open-loop ones.
	Workload *workload.Spec `json:"workload,omitempty"`
	// MaxParallel caps how many cells run concurrently (0: GOMAXPROCS).
	// Cells are independent simulations; the report is folded in canonical
	// grid order afterwards, so any parallelism yields byte-identical
	// output to a serial run.
	MaxParallel int `json:"max_parallel,omitempty"`
}

// ParseCampaign decodes a campaign spec from JSON.
func ParseCampaign(data []byte) (CampaignSpec, error) {
	var spec CampaignSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return CampaignSpec{}, fmt.Errorf("exp: parsing campaign spec: %w", err)
	}
	return spec, nil
}

func (s CampaignSpec) withDefaults() CampaignSpec {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if len(s.Grid.Nets) == 0 {
		s.Grid.Nets = []string{"baldur"}
	}
	if len(s.Grid.NodesExp) == 0 {
		s.Grid.NodesExp = []int{3}
	}
	if len(s.Grid.LoadsPct) == 0 {
		s.Grid.LoadsPct = []int{50}
	}
	if s.Grid.PacketsPerNode == 0 {
		s.Grid.PacketsPerNode = 8
	}
	if len(s.Grid.Shards) == 0 {
		s.Grid.Shards = []int{1}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []uint64{1}
	}
	if s.HorizonUS == 0 {
		s.HorizonUS = 500
	}
	return s
}

// BaselineScript names the implicit fault-free cell every (config, seed)
// runs first.
const BaselineScript = "baseline"

// CellResult is one campaign cell's availability report.
type CellResult struct {
	Net      string
	NodesExp int
	LoadPct  int
	Shards   int
	Seed     uint64
	Script   string

	Injected        uint64
	Delivered       uint64
	GaveUp          uint64
	FaultDrops      uint64
	Dropped         uint64
	Retransmissions uint64

	// DeliveredFrac is delivered / injected (1 when nothing was injected).
	DeliveredFrac float64
	// UnavailUS totals the barrier slices in which no packet was delivered
	// while work was outstanding; UnavailWindows counts the contiguous
	// stretches of such slices.
	UnavailUS      float64
	UnavailWindows int
	// TailNS is the cell's p99 latency; TailInflation is its ratio to the
	// fault-free baseline of the same (config, seed).
	TailNS        float64
	TailInflation float64
	// RetxAmp is the cell's attempts-per-injected-packet ratio over the
	// baseline's: how much extra wire traffic the faults induced.
	RetxAmp float64
	// FaultEvents counts applied script events.
	FaultEvents int
	// Finished is false when the horizon cut the run short.
	Finished    bool
	Checkpoints int
	Violations  []check.Violation

	fp netsim.Ledger
}

func (c *CellResult) id() string {
	return fmt.Sprintf("%s/n%d/l%d/k%d/s%d/%s", c.Net, c.NodesExp, c.LoadPct, c.Shards, c.Seed, c.Script)
}

// baseKey identifies the fault-free baseline a cell is compared against.
func (c *CellResult) baseKey() string {
	return fmt.Sprintf("%s/%d/%d/%d/%d", c.Net, c.NodesExp, c.LoadPct, c.Shards, c.Seed)
}

// invKey groups cells that must be bit-identical across shard counts.
func (c *CellResult) invKey() string {
	return fmt.Sprintf("%s/%d/%d/%d/%s", c.Net, c.NodesExp, c.LoadPct, c.Seed, c.Script)
}

func retxRatio(fp netsim.Ledger) float64 {
	if fp.Injected == 0 || fp.DataAttempts == 0 {
		return 1
	}
	return float64(fp.DataAttempts) / float64(fp.Injected)
}

// runCampaignCell executes one (config, seed, script) cell: the canonical
// fuzz configuration under open-loop load, driven through barrier-aligned
// fault slices, with the availability observer hanging off the slice hook.
func runCampaignCell(spec CampaignSpec, netName string, nodesExp, loadPct, shards int, seed uint64, script faults.ScriptSpec) (CellResult, error) {
	res := CellResult{
		Net: netName, NodesExp: nodesExp, LoadPct: loadPct,
		Shards: shards, Seed: seed, Script: script.Name,
	}
	compiled, err := script.Compile(seed)
	if err != nil {
		return res, err
	}
	cfg := check.FuzzConfig{
		Net: netName, NodesExp: nodesExp, LoadPct: loadPct,
		PacketsPerNode: spec.Grid.PacketsPerNode,
		MaxAttempts:    spec.MaxAttempts,
		FaultStage:     -1,
		Seed:           seed,
	}.Canon()
	net, _, err := harness.Build(cfg, shards)
	if err != nil {
		return res, err
	}
	ctrl := faults.NewController(compiled)
	var regions []telemetry.Region
	var prevDelivered uint64
	var prevAt sim.Time
	inWindow := false
	var col netsim.Collector
	c := &cell{
		net: net, label: res.id(), col: &col,
		start: func(net netsim.Network) error {
			harness.StartOpenLoop(net, cfg)
			return nil
		},
		timeline: ctrl,
		drive: netsim.DriveOptions{
			Deadline: sim.Time(0).Add(sim.Microseconds(spec.HorizonUS)),
			Interval: sim.Microseconds(spec.SliceUS),
			Observe: func(at sim.Time, drained bool) {
				fp := net.Ledger()
				outstanding := int64(fp.Injected) - int64(fp.Delivered) - int64(fp.GaveUp) - int64(fp.Dropped)
				if fp.Delivered == prevDelivered && outstanding > 0 {
					res.UnavailUS += sim.Duration(at-prevAt).Seconds() * 1e6
					if !inWindow {
						res.UnavailWindows++
						inWindow = true
						regions = append(regions, telemetry.Region{Name: "unavailable", From: prevAt, To: at})
					} else {
						regions[len(regions)-1].To = at
					}
				} else {
					inWindow = false
				}
				prevDelivered, prevAt = fp.Delivered, at
			},
		},
	}
	if spec.Workload != nil {
		c.start = func(net netsim.Network) error {
			ws := *spec.Workload
			if ws.Seed == 0 {
				ws.Seed = 1
			}
			ws.Seed += seed
			drv, err := workload.New(ws)
			if err != nil {
				return err
			}
			return drv.Attach(net)
		}
	}
	if spec.TraceDir != "" || spec.TraceSample > 0 {
		fr := spec.FlightRecords
		if fr == 0 {
			fr = 1 << 17
		}
		c.tel = &telemetry.Options{FlightRecords: fr, TraceSample: spec.TraceSample}
	}
	if spec.TraceDir != "" {
		c.export = func(tel *telemetry.Telemetry) error { return writeCellTrace(spec.TraceDir, &res, tel, regions) }
	}
	if spec.Audit {
		c.audit = &check.Options{}
	}
	err = c.run(func() error {
		fp := net.Ledger()
		res.fp = fp
		res.Injected = fp.Injected
		res.Delivered = fp.Delivered
		res.GaveUp = fp.GaveUp
		res.FaultDrops = fp.FaultDrops
		res.Dropped = fp.Dropped
		res.Retransmissions = fp.Retransmissions
		res.DeliveredFrac = 1
		if fp.Injected > 0 {
			res.DeliveredFrac = float64(fp.Delivered) / float64(fp.Injected)
		}
		res.TailNS = col.TailNS()
		res.TailInflation = 1
		res.RetxAmp = 1
		res.FaultEvents = ctrl.Applied()
		res.Finished = !c.more
		if aud := c.drive.Aud; aud != nil {
			res.Checkpoints = aud.Checkpoints()
			res.Violations = aud.Violations()
		}
		return nil
	})
	return res, err
}

// writeCellTrace exports one campaign cell's Perfetto trace: flight records
// (span chains, fault instants) plus the cell's unavailability windows as
// shaded regions. File names flatten the cell id so a whole campaign can
// share one directory.
func writeCellTrace(dir string, res *CellResult, tel *telemetry.Telemetry, regions []telemetry.Region) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if n := tel.Rec.Overwritten(); n > 0 {
		fmt.Fprintf(os.Stderr, "campaign: WARN cell %s: flight recorder wrapped, %d oldest records dropped — trace is incomplete (raise flight_records)\n",
			res.id(), n)
	}
	path := filepath.Join(dir, strings.ReplaceAll(res.id(), "/", "-")+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTraceRegions(f, tel.Rec.Records(), regions, res.id()); err != nil {
		f.Close()
		return fmt.Errorf("exp: cell trace export: %w", err)
	}
	return f.Close()
}

// CampaignReport is a finished campaign: every cell (baselines first within
// each config), in deterministic grid order.
type CampaignReport struct {
	Spec  CampaignSpec
	Cells []CellResult
}

// campaignCellKey is one cell of the canonical grid enumeration.
type campaignCellKey struct {
	net      string
	nodesExp int
	loadPct  int
	shards   int
	seed     uint64
	script   faults.ScriptSpec
}

// enumCells expands the grid into canonical order: nets → nodes → loads →
// shards → seeds → (baseline, scripts...). This order is the report's row
// order and the normalization fold's order, independent of how the cells
// are scheduled.
func enumCells(spec CampaignSpec) []campaignCellKey {
	var keys []campaignCellKey
	scripts := append([]faults.ScriptSpec{{Name: BaselineScript}}, spec.Scripts...)
	for _, netName := range spec.Grid.Nets {
		nes := spec.Grid.NodesExp
		if netName == "dragonfly" || netName == "fattree" {
			// Fixed-shape networks ignore NodesExp (Canon zeroes it); one
			// grid value is enough.
			nes = nes[:1]
		}
		for _, ne := range nes {
			for _, load := range spec.Grid.LoadsPct {
				for _, sh := range spec.Grid.Shards {
					for _, seed := range spec.Seeds {
						for _, script := range scripts {
							keys = append(keys, campaignCellKey{
								net: netName, nodesExp: ne, loadPct: load,
								shards: sh, seed: seed, script: script,
							})
						}
					}
				}
			}
		}
	}
	return keys
}

// RunCampaign executes the spec's cells concurrently (bounded by
// MaxParallel, default GOMAXPROCS — every cell is an independent simulation
// with its own seeded RNGs) and folds the report serially in canonical grid
// order, so the output is byte-identical to a serial run. Each (config,
// seed) runs a fault-free baseline; script cells are normalized against it.
// Cells differing only in shard count are checked for bit-identical stats —
// any divergence is a simulator bug and fails the campaign immediately.
func RunCampaign(spec CampaignSpec) (*CampaignReport, error) {
	spec = spec.withDefaults()
	if spec.Workload != nil {
		if err := spec.Workload.Validate(); err != nil {
			return nil, fmt.Errorf("exp: campaign %q: %w", spec.Name, err)
		}
	}
	keys := enumCells(spec)
	cells := make([]CellResult, len(keys))
	workers := Scale{MaxParallel: spec.MaxParallel}.workers()
	err := runParallel(len(keys), workers, func(i int) error {
		k := keys[i]
		cell, err := runCampaignCell(spec, k.net, k.nodesExp, k.loadPct, k.shards, k.seed, k.script)
		if err != nil {
			return fmt.Errorf("exp: campaign %q cell %s: %w", spec.Name, cell.id(), err)
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Serial fold in canonical order: baselines precede their script cells
	// within each (config, seed) group by construction of enumCells.
	rep := &CampaignReport{Spec: spec}
	baselines := make(map[string]netsim.Ledger)
	baseTails := make(map[string]float64)
	invariant := make(map[string]*CellResult)
	for i := range cells {
		cell := cells[i]
		if cell.Script == BaselineScript {
			baselines[cell.baseKey()] = cell.fp
			baseTails[cell.baseKey()] = cell.TailNS
		} else {
			base := baselines[cell.baseKey()]
			if bt := baseTails[cell.baseKey()]; bt > 0 {
				cell.TailInflation = cell.TailNS / bt
			}
			if br := retxRatio(base); br > 0 {
				cell.RetxAmp = retxRatio(cell.fp) / br
			}
		}
		if prev, ok := invariant[cell.invKey()]; ok {
			if prev.fp != cell.fp {
				return nil, fmt.Errorf(
					"exp: campaign %q: shard-count divergence on %s:\n  %d shards: %+v\n  %d shards: %+v",
					spec.Name, cell.invKey(), prev.Shards, prev.fp, cell.Shards, cell.fp)
			}
		} else {
			c := cell
			invariant[cell.invKey()] = &c
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// Err returns the first audit failure or unfinished cell in the report, nil
// when every cell ran clean to drain (or to the horizon with clean audits —
// only audit violations and error cells fail a campaign; an unfinished cell
// is reported in the table but is a legitimate outcome under saturation).
func (r *CampaignReport) Err() error {
	for i := range r.Cells {
		c := &r.Cells[i]
		if len(c.Violations) > 0 {
			return fmt.Errorf("exp: campaign %q cell %s: %d audit violation(s); first: %s",
				r.Spec.Name, c.id(), len(c.Violations), c.Violations[0].String())
		}
		if r.Spec.Audit && c.Checkpoints == 0 {
			return fmt.Errorf("exp: campaign %q cell %s: auditor executed no checkpoints", r.Spec.Name, c.id())
		}
	}
	return nil
}

// CampaignAggregate is one (config, script) row aggregated across seeds.
type CampaignAggregate struct {
	Net      string
	NodesExp int
	LoadPct  int
	Shards   int
	Script   string

	Seeds             int
	MeanDeliveredFrac float64
	MeanUnavailUS     float64
	MeanTailInflation float64
	MeanRetxAmp       float64
	Finished          int
	Violations        int
}

// Aggregates folds the per-cell results across seeds, in first-seen order.
func (r *CampaignReport) Aggregates() []CampaignAggregate {
	idx := make(map[string]int)
	var out []CampaignAggregate
	for i := range r.Cells {
		c := &r.Cells[i]
		key := fmt.Sprintf("%s/%d/%d/%d/%s", c.Net, c.NodesExp, c.LoadPct, c.Shards, c.Script)
		j, ok := idx[key]
		if !ok {
			j = len(out)
			idx[key] = j
			out = append(out, CampaignAggregate{
				Net: c.Net, NodesExp: c.NodesExp, LoadPct: c.LoadPct,
				Shards: c.Shards, Script: c.Script,
			})
		}
		a := &out[j]
		a.Seeds++
		a.MeanDeliveredFrac += c.DeliveredFrac
		a.MeanUnavailUS += c.UnavailUS
		a.MeanTailInflation += c.TailInflation
		a.MeanRetxAmp += c.RetxAmp
		if c.Finished {
			a.Finished++
		}
		a.Violations += len(c.Violations)
	}
	for i := range out {
		a := &out[i]
		n := float64(a.Seeds)
		a.MeanDeliveredFrac /= n
		a.MeanUnavailUS /= n
		a.MeanTailInflation /= n
		a.MeanRetxAmp /= n
	}
	return out
}

// CSV renders the per-cell availability report.
func (r *CampaignReport) CSV() string {
	header := []string{
		"net", "nodes_exp", "load_pct", "shards", "seed", "script",
		"injected", "delivered", "gave_up", "fault_drops", "dropped", "retx",
		"delivered_frac", "unavail_us", "unavail_windows",
		"tail_ns", "tail_inflation", "retx_amp", "fault_events", "finished", "violations",
	}
	rows := make([][]string, 0, len(r.Cells))
	for i := range r.Cells {
		c := &r.Cells[i]
		rows = append(rows, []string{
			c.Net, fmt.Sprint(c.NodesExp), fmt.Sprint(c.LoadPct), fmt.Sprint(c.Shards),
			fmt.Sprint(c.Seed), c.Script,
			fmt.Sprint(c.Injected), fmt.Sprint(c.Delivered), fmt.Sprint(c.GaveUp),
			fmt.Sprint(c.FaultDrops), fmt.Sprint(c.Dropped), fmt.Sprint(c.Retransmissions),
			fmt.Sprintf("%.4f", c.DeliveredFrac),
			fmt.Sprintf("%.1f", c.UnavailUS), fmt.Sprint(c.UnavailWindows),
			fmt.Sprintf("%.1f", c.TailNS), fmt.Sprintf("%.3f", c.TailInflation),
			fmt.Sprintf("%.3f", c.RetxAmp), fmt.Sprint(c.FaultEvents),
			fmt.Sprint(c.Finished), fmt.Sprint(len(c.Violations)),
		})
	}
	return CSV(header, rows)
}

// AggregateCSV renders the across-seed aggregate report.
func (r *CampaignReport) AggregateCSV() string {
	header := []string{
		"net", "nodes_exp", "load_pct", "shards", "script", "seeds",
		"delivered_frac", "unavail_us", "tail_inflation", "retx_amp", "finished", "violations",
	}
	aggs := r.Aggregates()
	rows := make([][]string, 0, len(aggs))
	for i := range aggs {
		a := &aggs[i]
		rows = append(rows, []string{
			a.Net, fmt.Sprint(a.NodesExp), fmt.Sprint(a.LoadPct), fmt.Sprint(a.Shards),
			a.Script, fmt.Sprint(a.Seeds),
			fmt.Sprintf("%.4f", a.MeanDeliveredFrac), fmt.Sprintf("%.1f", a.MeanUnavailUS),
			fmt.Sprintf("%.3f", a.MeanTailInflation), fmt.Sprintf("%.3f", a.MeanRetxAmp),
			fmt.Sprintf("%d/%d", a.Finished, a.Seeds), fmt.Sprint(a.Violations),
		})
	}
	return CSV(header, rows)
}

// Table renders the aggregate report as a fixed-width text table.
func (r *CampaignReport) Table() string {
	header := []string{"net", "load%", "K", "script", "deliv_frac", "unavail_us", "tail_x", "retx_x", "done"}
	aggs := r.Aggregates()
	rows := make([][]string, 0, len(aggs))
	for i := range aggs {
		a := &aggs[i]
		rows = append(rows, []string{
			a.Net, fmt.Sprint(a.LoadPct), fmt.Sprint(a.Shards), a.Script,
			fmt.Sprintf("%.4f", a.MeanDeliveredFrac), fmt.Sprintf("%.1f", a.MeanUnavailUS),
			fmt.Sprintf("%.2f", a.MeanTailInflation), fmt.Sprintf("%.2f", a.MeanRetxAmp),
			fmt.Sprintf("%d/%d", a.Finished, a.Seeds),
		})
	}
	return renderTable(header, rows)
}
