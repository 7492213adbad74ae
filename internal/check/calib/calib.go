// Package calib is the twin-calibration harness: it evaluates every cell of
// the twin's validity envelope (twin.InEnvelope) under both fidelity tiers —
// the packet-level discrete-event engine and the analytical twin
// (internal/twin) — and records the twin's per-cell relative error on mean
// latency, p99 latency and delivered throughput, plus the wall-clock speedup
// of the twin pass over the packet pass. Check fails a cell whose error
// passes the envelope's floor, so the gate measures the twin against the
// packet tier, never against an earlier run of itself.
//
// It lives beside internal/check (like internal/check/harness) rather than
// inside it because it drives whole experiment cells through internal/exp,
// which itself imports check for the audit layer.
package calib

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"baldur/internal/exp"
	"baldur/internal/netsim"
	"baldur/internal/twin"
)

// Cell is one calibration point: the twin's relative error per metric
// against the packet engine.
type Cell struct {
	Network string
	Pattern string
	Load    float64

	// Signed relative errors, (twin - packet) / packet.
	AvgErr float64
	P99Err float64
	ThrErr float64

	// Regime classification under each tier: false when the run exceeds
	// the virtual-time safety horizon. The tiers must agree.
	TwinFinished   bool
	PacketFinished bool
}

// Key identifies a cell within a report.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s@%.2f", c.Network, c.Pattern, c.Load)
}

// Report is a full calibration run: the grid's cells plus the wall-clock
// cost of each pass.
type Report struct {
	Scale        string
	Seed         uint64
	PacketWallMS float64
	TwinWallMS   float64
	SpeedupX     float64
	Cells        []Cell
}

// Grid pins a calibration family. Every cell must lie inside the twin's
// validity envelope.
type Grid struct {
	Networks []string
	Patterns []string
	Loads    []float64
}

// FullGrid is the envelope's cells: every modelled network and pattern at
// every Fig 6 load up to twin.MaxLoad.
func FullGrid() Grid {
	g := Grid{Networks: twin.Networks, Patterns: twin.Patterns}
	for _, load := range exp.Fig6Loads {
		if load <= twin.MaxLoad {
			g.Loads = append(g.Loads, load)
		}
	}
	return g
}

// Run evaluates the grid under both tiers and returns the per-cell errors.
// It refuses a grid with a cell outside the envelope: the twin tier would
// answer that cell on the packet engine, timing and comparing the packet
// tier against itself.
func Run(sc exp.Scale, g Grid) (Report, error) {
	rep := Report{Scale: sc.Name, Seed: sc.Seed}
	for _, net := range g.Networks {
		for _, pat := range g.Patterns {
			for _, load := range g.Loads {
				c := Cell{Network: net, Pattern: pat, Load: load}
				if !twin.InEnvelope(net, pat, load) {
					return Report{}, fmt.Errorf("calib: cell %s is outside the twin's validity envelope", c.Key())
				}
				rep.Cells = append(rep.Cells, c)
			}
		}
	}
	packet := make([]exp.Point, len(rep.Cells))
	analytic := make([]exp.Point, len(rep.Cells))
	var err error
	if rep.PacketWallMS, err = pass(sc, netsim.FidelityPacket, rep.Cells, packet); err != nil {
		return Report{}, err
	}
	if rep.TwinWallMS, err = pass(sc, netsim.FidelityTwin, rep.Cells, analytic); err != nil {
		return Report{}, err
	}
	for i := range rep.Cells {
		c, tp, pp := &rep.Cells[i], analytic[i], packet[i]
		c.AvgErr = relErr(tp.AvgNS, pp.AvgNS)
		c.P99Err = relErr(tp.TailNS, pp.TailNS)
		c.ThrErr = relErr(tp.ThroughputPPS, pp.ThroughputPPS)
		c.TwinFinished, c.PacketFinished = tp.Finished, pp.Finished
	}
	if rep.TwinWallMS > 0 {
		rep.SpeedupX = rep.PacketWallMS / rep.TwinWallMS
	}
	return rep, nil
}

// pass runs every cell at one fidelity into out and returns its wall time
// in milliseconds. It starts from a collected heap, so the twin pass is not
// charged for collecting the packet pass's garbage.
func pass(sc exp.Scale, fid netsim.Fidelity, cells []Cell, out []exp.Point) (float64, error) {
	sc.Fidelity = fid
	runtime.GC()
	start := time.Now()
	for i, c := range cells {
		p, err := exp.RunOpenLoop(c.Network, c.Pattern, c.Load, sc)
		if err != nil {
			return 0, fmt.Errorf("%s %s: %w", fid, c.Key(), err)
		}
		out[i] = p
	}
	return float64(time.Since(start).Microseconds()) / 1e3, nil
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

// Check prints every cell of a run and fails the cells the twin does not
// answer within the envelope's floors: an |error| past twin.AvgFloor,
// twin.P99Floor or twin.ThrFloor — or not a number — or tiers that disagree
// on whether the run finished. Returns an error naming the number of failed
// cells, or nil.
func Check(r Report, w io.Writer) error {
	failed := 0
	for _, c := range r.Cells {
		var bad []string
		for _, m := range []struct {
			name       string
			err, floor float64
		}{
			{"avg", c.AvgErr, twin.AvgFloor},
			{"p99", c.P99Err, twin.P99Floor},
			{"thr", c.ThrErr, twin.ThrFloor},
		} {
			if !(math.Abs(m.err) <= m.floor) {
				bad = append(bad, m.name)
			}
		}
		if c.TwinFinished != c.PacketFinished {
			bad = append(bad, "finished")
		}
		verdict := "ok"
		if len(bad) > 0 {
			failed++
			verdict = "FAIL " + strings.Join(bad, " ")
		}
		fmt.Fprintf(w, "calib %-38s avg %+7.1f%%  p99 %+7.1f%%  thr %+7.1f%%  finished twin=%v packet=%v  %s\n",
			c.Key(), c.AvgErr*100, c.P99Err*100, c.ThrErr*100, c.TwinFinished, c.PacketFinished, verdict)
	}
	if failed > 0 {
		return fmt.Errorf("calib: %d cell(s) outside the twin's error floors (avg %.0f%%, p99 %.0f%%, thr %.0f%%) or finished differently",
			failed, twin.AvgFloor*100, twin.P99Floor*100, twin.ThrFloor*100)
	}
	return nil
}
