package main

import (
	"encoding/json"
	"testing"

	"baldur/internal/exp"
)

// quickShape is exp.Quick's network sizing.
var quickShape = shape{nodes: exp.Quick.Nodes, dragonflyP: exp.Quick.DragonflyP, fatTreeK: exp.Quick.FatTreeK}

// runOne runs one cell the way a benchmark pass does.
func runOne(t *testing.T, c cellSpec, traced bool) cellResult {
	t.Helper()
	res := runCell(&c, 0, newTracer(traced))
	if res.Err != "" {
		t.Fatalf("%s: %s", res.ID, res.Err)
	}
	return res
}

func pointOf(t *testing.T, res cellResult) exp.Point {
	t.Helper()
	var p exp.Point
	if err := json.Unmarshal(res.FP, &p); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCellsMatchExp proves the benchmark's cells compute exactly what
// exp.RunOpenLoop and exp.RunPingPong return, traced or not, on one
// Quick-sized cell per network model.
func TestCellsMatchExp(t *testing.T) {
	for _, net := range fig6Nets {
		want, err := exp.RunOpenLoop(net, "group_permutation", 0.7, exp.Quick)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			got := pointOf(t, runOne(t, cellSpec{kind: openLoop, net: net, pattern: "group_permutation", load: 0.7,
				shape: quickShape, packets: exp.Quick.PacketsPerNode, seed: exp.Quick.Seed}, traced))
			if got != want {
				t.Errorf("open loop %s traced=%v:\n got %+v\nwant %+v", net, traced, got, want)
			}
		}

		want, err = exp.RunPingPong(net, "ping_pong1", exp.Quick)
		if err != nil {
			t.Fatal(err)
		}
		got := pointOf(t, runOne(t, cellSpec{kind: pingPong, net: net, pattern: "ping_pong1",
			shape: quickShape, packets: exp.Quick.PacketsPerNode, seed: exp.Quick.Seed}, true))
		if got != want {
			t.Errorf("ping-pong %s:\n got %+v\nwant %+v", net, got, want)
		}
	}
}

// TestCampaignCellsMatchExp runs the fault_campaign spec through
// exp.RunCampaign for two seeds and checks every cell's public CellResult
// fields against the benchmark's campaign cells. TailInflation and RetxAmp
// are normalisations exp applies across cells afterwards and are not
// compared.
func TestCampaignCellsMatchExp(t *testing.T) {
	spec := faultCampaign
	spec.Seeds = []uint64{1, 2}
	spec.MaxParallel = 1
	rep, err := exp.RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 60 {
		t.Fatalf("campaign ran %d cells, want 60", len(rep.Cells))
	}
	for _, want := range rep.Cells {
		c := cellSpec{kind: campaign, net: want.Net, shards: want.Shards, seed: want.Seed}
		for _, s := range spec.Scripts {
			if s.Name == want.Script {
				c.script = s
			}
		}
		c.script.Name = want.Script
		res := runOne(t, c, false)
		var fp campaignFP
		if err := json.Unmarshal(res.FP, &fp); err != nil {
			t.Fatal(err)
		}
		deliveredFrac := 1.0
		if fp.Injected > 0 {
			deliveredFrac = float64(fp.Delivered) / float64(fp.Injected)
		}
		got := exp.CellResult{
			Net: want.Net, NodesExp: want.NodesExp, LoadPct: want.LoadPct, Shards: want.Shards, Seed: want.Seed, Script: want.Script,
			Injected: fp.Injected, Delivered: fp.Delivered, GaveUp: fp.GaveUp, FaultDrops: fp.FaultDrops,
			Dropped: fp.Dropped, Retransmissions: fp.Retransmissions, DeliveredFrac: deliveredFrac,
			UnavailUS: fp.UnavailUS, UnavailWindows: fp.UnavailWindows, TailNS: fp.TailNS,
			TailInflation: want.TailInflation, RetxAmp: want.RetxAmp,
			FaultEvents: fp.FaultEvents, Finished: fp.Finished, Checkpoints: fp.Checkpoints,
		}
		w := want
		w.Violations = nil
		if len(want.Violations) > 0 {
			t.Errorf("%s: exp reports %d audit violations", res.ID, len(want.Violations))
		}
		if !campaignCellsEqual(got, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", res.ID, got, w)
		}
	}
}

// campaignCellsEqual compares the exported fields of two cell results.
func campaignCellsEqual(a, b exp.CellResult) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}
