package exp

import (
	"testing"

	"baldur/internal/netsim"
	"baldur/internal/twin"
)

// TestTwinDeterminism pins the twin tier's reproducibility contract: the
// same (network, pattern, load, scale, seed) cell evaluates to a
// bit-identical Point every time. The model has no hidden state — its only
// stochastic component, the injection replay, reads seeded streams — so even
// exact float equality must hold.
func TestTwinDeterminism(t *testing.T) {
	sc := Quick
	sc.Fidelity = netsim.FidelityTwin
	for _, net := range twin.Networks {
		for _, load := range []float64{0.1, twin.MaxLoad} {
			a, err := RunOpenLoop(net, "transpose", load, sc)
			if err != nil {
				t.Fatalf("%s@%.1f: %v", net, load, err)
			}
			b, err := RunOpenLoop(net, "transpose", load, sc)
			if err != nil {
				t.Fatalf("%s@%.1f: %v", net, load, err)
			}
			if a != b {
				t.Errorf("%s@%.1f: twin not deterministic:\n  %+v\n  %+v", net, load, a, b)
			}
		}
	}
}

// TestTwinSeedSensitivity is the complement: a different seed must change
// the answer (the stochastic components actually read the seed), while
// keeping determinism per seed.
func TestTwinSeedSensitivity(t *testing.T) {
	sc := Quick
	sc.Fidelity = netsim.FidelityTwin
	a, err := RunOpenLoop("baldur", "transpose", twin.MaxLoad, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 7
	b, err := RunOpenLoop("baldur", "transpose", twin.MaxLoad, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("seed change left the twin's answer bit-identical; seed is not threaded through")
	}
}

// TestTwinMonotonicity checks the model's qualitative physics across the
// envelope's Fig 6 loads: pushing more load through the same fabric never
// lowers the mean latency, the p99 latency or the drop rate. Each (network,
// pattern) row must be nondecreasing in load, with no slack: the model has
// no sampling jitter to absorb.
func TestTwinMonotonicity(t *testing.T) {
	sc := Quick
	sc.Fidelity = netsim.FidelityTwin
	for _, net := range twin.Networks {
		for _, pat := range twin.Patterns {
			var prev Point
			for _, load := range Fig6Loads {
				if load > twin.MaxLoad {
					break
				}
				p, err := RunOpenLoop(net, pat, load, sc)
				if err != nil {
					t.Fatalf("%s/%s@%.1f: %v", net, pat, load, err)
				}
				if p.AvgNS < prev.AvgNS || p.TailNS < prev.TailNS || p.DropRate < prev.DropRate {
					t.Errorf("%s/%s: load %.1f -> %.1f lowered avg %.1f -> %.1f ns, p99 %.1f -> %.1f ns or drop %.5f -> %.5f",
						net, pat, prev.Load, load, prev.AvgNS, p.AvgNS, prev.TailNS, p.TailNS, prev.DropRate, p.DropRate)
				}
				prev = p
			}
		}
	}
}

// TestTwinRoutesUnmodelledToPacket pins the tier split: a cell outside the
// twin's validity envelope — a network, a pattern or a load the twin is not
// calibrated for — answers a twin-tier run on the packet engine, so the
// Point equals the packet-tier Point exactly and records its events.
func TestTwinRoutesUnmodelledToPacket(t *testing.T) {
	for _, c := range []struct {
		network, pattern string
		load             float64
	}{
		{"dragonfly", "transpose", 0.5},
		{"fattree", "transpose", 0.5},
		{"baldur", "hotspot", 0.5},
		{"baldur", "transpose", 0.7},
	} {
		sc := Quick
		want, err := RunOpenLoop(c.network, c.pattern, c.load, sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.Fidelity = netsim.FidelityTwin
		got, err := RunOpenLoop(c.network, c.pattern, c.load, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got.Events == 0 {
			t.Errorf("twin-tier %s/%s@%g cell is not the packet cell:\n  twin   %+v\n  packet %+v",
				c.network, c.pattern, c.load, got, want)
		}
	}
}

// TestTwinFallsBackForClosedLoopAndWorkloads pins that ping-pong and
// service-workload cells, which the twin has no model for, run on the packet
// engine under the twin tier and report exactly the packet-tier answer.
func TestTwinFallsBackForClosedLoopAndWorkloads(t *testing.T) {
	sc := Quick
	want, err := RunPingPong("baldur", "ping_pong1", sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Fidelity = netsim.FidelityTwin
	got, err := RunPingPong("baldur", "ping_pong1", sc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.Events == 0 {
		t.Errorf("twin-tier ping-pong cell is not the packet cell:\n  twin   %+v\n  packet %+v", got, want)
	}

	ws := testWorkloadScale(1)
	wantRep, err := RunWorkload("baldur", testWorkloadSpec(), ws)
	if err != nil {
		t.Fatal(err)
	}
	ws.Fidelity = netsim.FidelityTwin
	gotRep, err := RunWorkload("baldur", testWorkloadSpec(), ws)
	if err != nil {
		t.Fatal(err)
	}
	if gotRep.CSV() != wantRep.CSV() || gotRep.Events != wantRep.Events || gotRep.Events == 0 {
		t.Errorf("twin-tier workload cell is not the packet cell:\n  twin   %d events\n%s  packet %d events\n%s",
			gotRep.Events, gotRep.CSV(), wantRep.Events, wantRep.CSV())
	}
}
