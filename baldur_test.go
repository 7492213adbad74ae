// Tests of the public facade: everything a downstream user touches must be
// reachable through the root package alone.
package baldur_test

import (
	"testing"

	"baldur"
)

// drain runs net until no event remains, failing t if a second of virtual
// time does not suffice.
func drain(t *testing.T, net baldur.Interconnect) {
	t.Helper()
	if net.Run(baldur.Time(0).Add(1000 * baldur.Millisecond)) {
		t.Fatal("events still queued after 1 s of virtual time")
	}
}

func TestFacadeQuickstartFlow(t *testing.T) {
	net, err := baldur.New(baldur.Config{Nodes: 64, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var col baldur.Collector
	col.Attach(net)
	ol := baldur.OpenLoop{
		Pattern:        baldur.RandomPermutation(64, 7),
		Load:           0.5,
		PacketsPerNode: 50,
		Seed:           1,
	}
	ol.Start(net)
	drain(t, net)
	if col.Delivered() != 64*50 {
		t.Errorf("delivered = %d, want %d", col.Delivered(), 64*50)
	}
	if col.AvgNS() < 300 || col.AvgNS() > 2000 {
		t.Errorf("avg = %v ns, implausible", col.AvgNS())
	}
	if net.Stats.Injected != 64*50 {
		t.Errorf("stats.Injected = %d", net.Stats.Injected)
	}
}

func TestFacadeBaselines(t *testing.T) {
	nets := []struct {
		name string
		mk   func() (baldur.Interconnect, error)
	}{
		{"mb", func() (baldur.Interconnect, error) {
			return baldur.NewElectricalMB(baldur.MBConfig{Nodes: 64, Multiplicity: 2, Seed: 1})
		}},
		{"dragonfly", func() (baldur.Interconnect, error) {
			return baldur.NewDragonfly(baldur.DragonflyConfig{P: 1, Seed: 1})
		}},
		{"fattree", func() (baldur.Interconnect, error) {
			return baldur.NewFatTree(baldur.FatTreeConfig{K: 4})
		}},
		{"ideal", func() (baldur.Interconnect, error) {
			return baldur.NewIdeal(16, 0), nil
		}},
	}
	for _, tc := range nets {
		net, err := tc.mk()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		delivered := 0
		net.OnDeliver(func(_ int, p *baldur.Packet, _ baldur.Time) { delivered++ })
		net.Send(0, net.NumNodes()-1, 0)
		drain(t, net)
		if delivered != 1 {
			t.Errorf("%s: delivered = %d", tc.name, delivered)
		}
	}
}

func TestFacadePatterns(t *testing.T) {
	for _, p := range []*baldur.Pattern{
		baldur.RandomPermutation(64, 1),
		baldur.Transpose(64),
		baldur.Bisection(64, 1),
		baldur.GroupPermutation(64, 8, 1),
		baldur.Hotspot(64, 0),
		baldur.PingPongPairs1(64, 1),
		baldur.PingPongPairs2(64, 8, 1),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestFacadeWorkloadReplay(t *testing.T) {
	net, err := baldur.New(baldur.Config{Nodes: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := baldur.AMG(64, baldur.TraceOptions{Iterations: 1})
	rep, err := baldur.NewReplayer(net, w)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Run()
	if !st.Completed {
		t.Error("replay incomplete")
	}
	if len(baldur.WorkloadNames()) != 4 {
		t.Errorf("workloads = %v", baldur.WorkloadNames())
	}
}

func TestFacadeExperiments(t *testing.T) {
	sc := baldur.QuickScale
	sc.PacketsPerNode = 20
	p, err := baldur.RunOpenLoop("baldur", "transpose", 0.5, sc)
	if err != nil {
		t.Fatal(err)
	}
	if p.AvgNS <= 0 {
		t.Error("no measurement")
	}
	if baldur.FullScale.Nodes != 1024 || baldur.MediumScale.Nodes != 256 {
		t.Error("scale presets wrong")
	}
}

func TestFacadeDurations(t *testing.T) {
	if baldur.Nanosecond != 1000*baldur.Picosecond {
		t.Error("duration units wrong")
	}
	if baldur.Millisecond != 1000*baldur.Microsecond {
		t.Error("duration units wrong")
	}
}
