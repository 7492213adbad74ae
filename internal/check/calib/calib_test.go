package calib

import (
	"io"
	"math"
	"strings"
	"testing"
)

// baselineCell is a committed cell with floor bounds, both tiers finished.
func baselineCell() Cell {
	return Cell{
		Network: "baldur", Pattern: "transpose", Load: 0.5,
		AvgBound: AvgFloor, P99Bound: P99Floor, ThrBound: ThrFloor,
		TwinFinished: true, PacketFinished: true,
	}
}

// check gates one fresh cell against baselineCell and returns the log.
func check(fresh Cell) (string, error) {
	var out strings.Builder
	err := Check(Report{Cells: []Cell{fresh}}, Report{Cells: []Cell{baselineCell()}}, &out)
	return out.String(), err
}

func TestCheckWithinBound(t *testing.T) {
	c := baselineCell()
	c.AvgErr, c.P99Err, c.ThrErr = -0.09, 0.25, 0.1
	if out, err := check(c); err != nil {
		t.Fatalf("errors within their bounds drifted: %v\n%s", err, out)
	}
}

// TestCheckNonFiniteDrifts pins that an error that is not a number within
// its bound fails the gate: NaN compares false against any bound, so a
// plain "|err| > bound" test would let it through.
func TestCheckNonFiniteDrifts(t *testing.T) {
	set := map[string]func(*Cell, float64){
		"avg": func(c *Cell, v float64) { c.AvgErr = v },
		"p99": func(c *Cell, v float64) { c.P99Err = v },
		"thr": func(c *Cell, v float64) { c.ThrErr = v },
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for metric, setErr := range set {
			c := baselineCell()
			setErr(&c, v)
			out, err := check(c)
			if err == nil {
				t.Errorf("%s error %v passed the gate:\n%s", metric, v, out)
			}
			if !strings.Contains(out, "DRIFT") {
				t.Errorf("%s error %v not reported as DRIFT:\n%s", metric, v, out)
			}
		}
	}
}

func TestCheckFinishedMismatchDrifts(t *testing.T) {
	c := baselineCell()
	c.TwinFinished = false
	if out, err := check(c); err == nil {
		t.Fatalf("twin finished-flag mismatch passed the gate:\n%s", out)
	}
	c = baselineCell()
	c.PacketFinished = false
	if out, err := check(c); err == nil {
		t.Fatalf("packet finished-flag mismatch passed the gate:\n%s", out)
	}
}

func TestCheckSkipsCellMissingFromBaseline(t *testing.T) {
	c := baselineCell()
	c.Network = "dragonfly"
	c.AvgErr = math.NaN()
	out, err := check(c)
	if err != nil {
		t.Fatalf("a cell missing from the baseline failed the gate: %v", err)
	}
	if !strings.Contains(out, "SKIP") {
		t.Errorf("missing cell not reported as SKIP:\n%s", out)
	}
}

func TestCheckCountsDriftedCells(t *testing.T) {
	a, b := baselineCell(), baselineCell()
	b.Load = 0.7
	fa, fb := a, b
	fa.AvgErr, fb.ThrErr = 0.5, -0.5
	err := Check(Report{Cells: []Cell{fa, fb}}, Report{Cells: []Cell{a, b}}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "2 cell(s)") {
		t.Fatalf("got %v, want two drifted cells", err)
	}
}

// TestStampBounds pins the bound policy: max(floor, Slack·|err|), rounded up
// to the next 0.001.
func TestStampBounds(t *testing.T) {
	r := Report{Cells: []Cell{
		{AvgErr: 0.01, P99Err: -0.02, ThrErr: 0},
		{AvgErr: -0.5, P99Err: 0.3, ThrErr: 0.10001},
	}}
	r.StampBounds()
	want := [][3]float64{
		{AvgFloor, P99Floor, ThrFloor},
		{0.7, 0.42, 0.141}, // 1.4·0.10001 = 0.140014 rounds up
	}
	for i, c := range r.Cells {
		got := [3]float64{c.AvgBound, c.P99Bound, c.ThrBound}
		for m := range got {
			if math.Abs(got[m]-want[i][m]) > 1e-12 {
				t.Errorf("cell %d metric %d: bound %v, want %v", i, m, got[m], want[i][m])
			}
		}
	}
}
