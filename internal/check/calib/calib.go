// Package calib is the twin-calibration harness: it evaluates a pinned
// (network, pattern, load) grid under both fidelity tiers — the packet-level
// discrete-event engine and the analytical twin (internal/twin) — and
// records the twin's per-cell relative error on mean latency, p99 latency,
// and delivered throughput, plus the wall-clock speedup of the twin pass
// over the packet pass.
//
// The measured errors become a committed baseline (BENCH_twin.json, written
// by cmd/twincal) with per-cell bounds stamped as max(floor, slack x
// |measured|): cells inside the model's validity envelope carry the tight
// default floor, saturated cells carry their measured envelope, and any code
// change that drifts a cell beyond its committed bound fails Check — the
// same regression-gate pattern cmd/benchjson -check uses for speed.
//
// It lives beside internal/check (like internal/check/harness) rather than
// inside it because it drives whole experiment cells through internal/exp,
// which itself imports check for the audit layer.
package calib

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"baldur/internal/exp"
	"baldur/internal/netsim"
	"baldur/internal/twin"
)

// Cell is one calibration point: the twin's relative error per metric
// against the packet engine, and the committed bound for each.
type Cell struct {
	Network string  `json:"network"`
	Pattern string  `json:"pattern"`
	Load    float64 `json:"load"`

	// Signed relative errors, (twin - packet) / packet.
	AvgErr float64 `json:"avg_err"`
	P99Err float64 `json:"p99_err"`
	ThrErr float64 `json:"thr_err"`

	// Committed absolute-value bounds for the errors above.
	AvgBound float64 `json:"avg_bound"`
	P99Bound float64 `json:"p99_bound"`
	ThrBound float64 `json:"thr_bound"`

	// Regime classification under each tier: false when the run exceeds
	// the virtual-time safety horizon. The classifications must agree
	// with the committed baseline's.
	TwinFinished   bool `json:"twin_finished"`
	PacketFinished bool `json:"packet_finished"`
}

// Key identifies a cell within a report.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s@%.2f", c.Network, c.Pattern, c.Load)
}

// Report is a full calibration run: the grid's cells plus the wall-clock
// cost of each pass.
type Report struct {
	Scale        string  `json:"scale"`
	Seed         uint64  `json:"seed"`
	PacketWallMS float64 `json:"packet_wall_ms"`
	TwinWallMS   float64 `json:"twin_wall_ms"`
	SpeedupX     float64 `json:"speedup_x"`
	Cells        []Cell  `json:"cells"`
}

// Grid pins the calibration family.
type Grid struct {
	Networks []string
	Patterns []string
	Loads    []float64
}

// FullGrid is the Table-VI/Fig-6 sweep over every network the twin models:
// every open-loop pattern, every load.
func FullGrid() Grid {
	return Grid{
		Networks: twin.Networks,
		Patterns: exp.Fig6Patterns,
		Loads:    exp.Fig6Loads,
	}
}

// Bound-stamping policy: every cell gets at least the floor; cells whose
// measured error already exceeds it (deep saturation, where no flow-level
// steady state exists) commit their measured envelope with slack for seed-
// and scheduler-level wobble.
const (
	AvgFloor = 0.10
	ThrFloor = 0.10
	P99Floor = 0.25
	Slack    = 1.4
)

// Run evaluates the grid under both tiers and returns the per-cell errors.
// Bounds are left zero; StampBounds fills them for a fresh baseline.
func Run(sc exp.Scale, g Grid) (Report, error) {
	rep := Report{Scale: sc.Name, Seed: sc.Seed}

	type pt = exp.Point
	packet := make(map[string]pt)
	scP := sc
	scP.Fidelity = netsim.FidelityPacket
	start := time.Now()
	for _, net := range g.Networks {
		for _, pat := range g.Patterns {
			for _, load := range g.Loads {
				p, err := exp.RunOpenLoop(net, pat, load, scP)
				if err != nil {
					return Report{}, fmt.Errorf("packet %s/%s@%.2f: %w", net, pat, load, err)
				}
				packet[fmt.Sprintf("%s/%s@%.2f", net, pat, load)] = p
			}
		}
	}
	rep.PacketWallMS = float64(time.Since(start).Microseconds()) / 1e3

	scT := sc
	scT.Fidelity = netsim.FidelityTwin
	start = time.Now()
	for _, net := range g.Networks {
		for _, pat := range g.Patterns {
			for _, load := range g.Loads {
				tp, err := exp.RunOpenLoop(net, pat, load, scT)
				if err != nil {
					return Report{}, fmt.Errorf("twin %s/%s@%.2f: %w", net, pat, load, err)
				}
				key := fmt.Sprintf("%s/%s@%.2f", net, pat, load)
				pp := packet[key]
				rep.Cells = append(rep.Cells, Cell{
					Network:        net,
					Pattern:        pat,
					Load:           load,
					AvgErr:         relErr(tp.AvgNS, pp.AvgNS),
					P99Err:         relErr(tp.TailNS, pp.TailNS),
					ThrErr:         relErr(tp.ThroughputPPS, pp.ThroughputPPS),
					TwinFinished:   tp.Finished,
					PacketFinished: pp.Finished,
				})
			}
		}
	}
	rep.TwinWallMS = float64(time.Since(start).Microseconds()) / 1e3
	if rep.TwinWallMS > 0 {
		rep.SpeedupX = rep.PacketWallMS / rep.TwinWallMS
	}
	return rep, nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (got - want) / want
}

// StampBounds derives committed bounds from this run's measured errors.
func (r *Report) StampBounds() {
	for i := range r.Cells {
		c := &r.Cells[i]
		c.AvgBound = bound(c.AvgErr, AvgFloor)
		c.P99Bound = bound(c.P99Err, P99Floor)
		c.ThrBound = bound(c.ThrErr, ThrFloor)
	}
}

func bound(err, floor float64) float64 {
	b := math.Max(floor, Slack*math.Abs(err))
	return math.Ceil(b*1000) / 1000
}

// Check compares a fresh run against the committed baseline: every fresh
// cell present in the baseline must have each |error| within the baseline's
// committed bound and must classify the saturation regime identically. An
// error that is not a number within its bound (NaN, ±Inf) drifts.
// Fresh cells missing from the baseline are reported and skipped (the run
// that introduces them regenerates the baseline). Returns an error naming
// the number of violations, or nil.
func Check(fresh, baseline Report, w io.Writer) error {
	base := make(map[string]Cell, len(baseline.Cells))
	for _, c := range baseline.Cells {
		base[c.Key()] = c
	}
	violations := 0
	for _, c := range fresh.Cells {
		b, ok := base[c.Key()]
		if !ok {
			fmt.Fprintf(w, "calib %-40s SKIP: not in baseline (new cell? regenerate the baseline)\n", c.Key())
			continue
		}
		cellOK := true
		metric := func(name string, err, bnd float64) {
			verdict := "ok"
			if !(math.Abs(err) <= bnd) {
				verdict = "DRIFT"
				cellOK = false
			}
			fmt.Fprintf(w, "calib %-40s %s %+7.1f%% (bound %.1f%%) %s\n",
				c.Key(), name, err*100, bnd*100, verdict)
		}
		metric("avg", c.AvgErr, b.AvgBound)
		metric("p99", c.P99Err, b.P99Bound)
		metric("thr", c.ThrErr, b.ThrBound)
		if c.TwinFinished != b.TwinFinished || c.PacketFinished != b.PacketFinished {
			fmt.Fprintf(w, "calib %-40s finished twin=%v packet=%v, baseline twin=%v packet=%v DRIFT\n",
				c.Key(), c.TwinFinished, c.PacketFinished, b.TwinFinished, b.PacketFinished)
			cellOK = false
		}
		if !cellOK {
			violations++
		}
	}
	if violations > 0 {
		return fmt.Errorf("calib: %d cell(s) drifted beyond the committed error bounds", violations)
	}
	return nil
}

// Load reads a committed calibration baseline.
func Load(path string) (Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return Report{}, fmt.Errorf("parsing %s: %w", path, err)
	}
	return r, nil
}

// Write stores the report as indented JSON.
func (r Report) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
