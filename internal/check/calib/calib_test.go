package calib

import (
	"io"
	"math"
	"strings"
	"testing"

	"baldur/internal/exp"
	"baldur/internal/twin"
)

// okCell is a cell with zero error, both tiers finished.
func okCell() Cell {
	return Cell{
		Network: "baldur", Pattern: "transpose", Load: 0.5,
		TwinFinished: true, PacketFinished: true,
	}
}

// check gates one cell and returns the log.
func check(c Cell) (string, error) {
	var out strings.Builder
	err := Check(Report{Cells: []Cell{c}}, &out)
	return out.String(), err
}

func TestCheckWithinBound(t *testing.T) {
	c := okCell()
	c.AvgErr, c.P99Err, c.ThrErr = -twin.AvgFloor, twin.P99Floor, twin.ThrFloor
	if out, err := check(c); err != nil || !strings.Contains(out, " ok") {
		t.Fatalf("errors at their floors failed: %v\n%s", err, out)
	}
}

// TestCheckFailsPastFloor pins that one metric past its floor fails the
// cell, for each metric and either sign.
func TestCheckFailsPastFloor(t *testing.T) {
	const eps = 1e-9
	for _, c := range []Cell{
		func() Cell { c := okCell(); c.AvgErr = twin.AvgFloor + eps; return c }(),
		func() Cell { c := okCell(); c.P99Err = -twin.P99Floor - eps; return c }(),
		func() Cell { c := okCell(); c.ThrErr = twin.ThrFloor + eps; return c }(),
	} {
		out, err := check(c)
		if err == nil || !strings.Contains(out, "FAIL") {
			t.Errorf("cell past a floor passed: %+v\n%s", c, out)
		}
	}
}

// TestCheckNonFiniteDrifts pins that an error that is not a number within
// its floor fails the gate: NaN compares false against any floor, so a
// plain "|err| > floor" test would let it through.
func TestCheckNonFiniteDrifts(t *testing.T) {
	set := map[string]func(*Cell, float64){
		"avg": func(c *Cell, v float64) { c.AvgErr = v },
		"p99": func(c *Cell, v float64) { c.P99Err = v },
		"thr": func(c *Cell, v float64) { c.ThrErr = v },
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for metric, setErr := range set {
			c := okCell()
			setErr(&c, v)
			out, err := check(c)
			if err == nil {
				t.Errorf("%s error %v passed the gate:\n%s", metric, v, out)
			}
			if !strings.Contains(out, "FAIL "+metric) {
				t.Errorf("%s error %v not reported as FAIL %s:\n%s", metric, v, metric, out)
			}
		}
	}
}

func TestCheckFinishedMismatchDrifts(t *testing.T) {
	c := okCell()
	c.TwinFinished = false
	if out, err := check(c); err == nil || !strings.Contains(out, "FAIL finished") {
		t.Fatalf("twin finished / packet not passed the gate:\n%s", out)
	}
	c = okCell()
	c.PacketFinished = false
	if out, err := check(c); err == nil {
		t.Fatalf("packet finished-flag mismatch passed the gate:\n%s", out)
	}
	c.TwinFinished = false
	if out, err := check(c); err != nil {
		t.Fatalf("tiers agreeing on an unfinished run failed: %v\n%s", err, out)
	}
}

func TestCheckCountsDriftedCells(t *testing.T) {
	a, b, ok := okCell(), okCell(), okCell()
	b.Load = 0.3
	a.AvgErr, b.ThrErr = 0.5, -0.5
	err := Check(Report{Cells: []Cell{a, ok, b}}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "2 cell(s)") {
		t.Fatalf("got %v, want two failed cells", err)
	}
}

// TestFullGridIsTheEnvelope pins that the calibration grid covers the
// envelope's networks and patterns at every Fig 6 load up to MaxLoad, and
// no cell outside it.
func TestFullGridIsTheEnvelope(t *testing.T) {
	g := FullGrid()
	if len(g.Networks) != len(twin.Networks) || len(g.Patterns) != len(twin.Patterns) {
		t.Fatalf("grid %v x %v, want the envelope's %v x %v", g.Networks, g.Patterns, twin.Networks, twin.Patterns)
	}
	var want []float64
	for _, load := range exp.Fig6Loads {
		if twin.InEnvelope("baldur", "transpose", load) {
			want = append(want, load)
		}
	}
	if len(g.Loads) != len(want) || len(want) == 0 {
		t.Fatalf("grid loads %v, want %v", g.Loads, want)
	}
}

// TestRunRefusesCellOutsideEnvelope pins that a grid cell the twin does not
// answer is an error, not a packet-vs-packet comparison.
func TestRunRefusesCellOutsideEnvelope(t *testing.T) {
	sc := exp.Quick
	sc.PacketsPerNode = 1
	for _, g := range []Grid{
		{Networks: []string{"fattree"}, Patterns: []string{"transpose"}, Loads: []float64{0.5}},
		{Networks: []string{"baldur"}, Patterns: []string{"hotspot"}, Loads: []float64{0.5}},
		{Networks: []string{"baldur"}, Patterns: []string{"transpose"}, Loads: []float64{0.7}},
	} {
		if _, err := Run(sc, g); err == nil || !strings.Contains(err.Error(), "envelope") {
			t.Errorf("Run(%v) = %v, want an envelope error", g, err)
		}
	}
}
