package twin

import (
	"math"
	"strings"
	"testing"

	"baldur/internal/traffic"
)

func near(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}

func TestMD1WaitClosedForm(t *testing.T) {
	const s = 20.48e-9
	for _, rho := range []float64{0.05, 0.3, 0.5, 0.9, 0.97} {
		want := rho * s / (2 * (1 - rho))
		if got := md1Wait(rho, s); !near(got, want, 1e-12) {
			t.Errorf("md1Wait(%g) = %g, want %g", rho, got, want)
		}
	}
	// Past rhoCap the wait stays at the cap's value: finite and monotone.
	capped := md1Wait(rhoCap, s)
	for _, rho := range []float64{rhoCap, 1, 3} {
		if got := md1Wait(rho, s); got != capped {
			t.Errorf("md1Wait(%g) = %g, want the rhoCap value %g", rho, got, capped)
		}
	}
	if got := md1Wait(0, s); got != 0 {
		t.Errorf("md1Wait(0) = %g, want 0", got)
	}
}

func TestErlangSingleServer(t *testing.T) {
	for _, a := range []float64{0.01, 0.2, 0.5, 0.9, 1, 2.5} {
		if got, want := erlangB(1, a), a/(1+a); !near(got, want, 1e-12) {
			t.Errorf("erlangB(1, %g) = %g, want %g", a, got, want)
		}
		wantC := a
		if a >= 1 {
			wantC = 1
		}
		if got := erlangC(1, a); !near(got, wantC, 1e-12) {
			t.Errorf("erlangC(1, %g) = %g, want %g", a, got, wantC)
		}
	}
	// Offered load at or above the server count always queues.
	for _, c := range []int{2, 4, 16} {
		if got := erlangC(c, float64(c)); got != 1 {
			t.Errorf("erlangC(%d, %d) = %g, want 1", c, c, got)
		}
	}
}

func TestMDcWaitSingleServerIsMD1(t *testing.T) {
	const s = 20.48e-9
	for _, a := range []float64{0.1, 0.5, 0.9, 0.99, 2} {
		if got, want := mdcWait(1, a, s), md1Wait(a, s); !near(got, want, 1e-12) {
			t.Errorf("mdcWait(1, %g) = %g, want md1Wait = %g", a, got, want)
		}
	}
}

func TestEngsetLoss(t *testing.T) {
	for _, c := range []int{1, 2, 4} {
		for S := 1; S <= c; S++ {
			if got := engsetLoss(S, c, 0.9); got != 0 {
				t.Errorf("engsetLoss(S=%d, c=%d) = %g, want 0 with no more feeders than wires", S, c, got)
			}
		}
	}
	// Many sources, each offering little, at a fixed total load: the
	// finite-source loss converges to Erlang B at the same total.
	const c, total = 4, 3.0
	prev := math.Inf(1)
	for _, S := range []int{100, 10_000, 1_000_000} {
		y := total / (float64(S-1) + total) // (S-1)·y/(1-y) = total
		got, want := engsetLoss(S, c, y), erlangB(c, float64(S-1)*y/(1-y))
		rel := math.Abs(got-want) / want
		if rel >= prev {
			t.Errorf("S=%d: |engset-erlangB|/erlangB = %g did not shrink from %g", S, rel, prev)
		}
		prev = rel
	}
	if prev > 1e-5 {
		t.Errorf("engsetLoss at S=1e6 is %g off Erlang B, want < 1e-5", prev)
	}
}

func TestTailDecayRoot(t *testing.T) {
	const s = 20.48e-9
	for _, c := range []int{1, 4} {
		for _, rho := range []float64{0.1, 0.5, 0.8, 0.95} {
			theta := tailDecay(c, rho, s)
			u := s / (theta * float64(c))
			if f := rho*(math.Exp(u)-1) - u; math.Abs(f) > 1e-12*u {
				t.Errorf("tailDecay(%d, %g): u = %g leaves rho(e^u-1)-u = %g", c, rho, u, f)
			}
			if u <= 0 {
				t.Errorf("tailDecay(%d, %g): root u = %g, want the positive root", c, rho, u)
			}
		}
	}
}

func TestFiniteWait(t *testing.T) {
	const w, rho = 1e-6, 0.9
	tau := w / (relaxK * (1 - rho))
	prev := 0.0
	for _, x := range []float64{0.01, 0.1, 1, 5, 29} {
		got := finiteWait(w, rho, x*tau)
		if got <= prev || got >= w {
			t.Errorf("finiteWait at T/tau = %g: %g, want in (%g, %g)", x, got, prev, w)
		}
		prev = got
	}
	for _, x := range []float64{30.5, 100} {
		if got := finiteWait(w, rho, x*tau); got != w {
			t.Errorf("finiteWait at T/tau = %g: %g, want the steady-state %g", x, got, w)
		}
	}
}

func TestNetworksAreModelled(t *testing.T) {
	cfg := Config{Nodes: 64, PacketsPerNode: 10, Seed: 1}
	for _, net := range Networks {
		p, err := EvalOpenLoop(net, traffic.Transpose(64), 0.5, cfg)
		if err != nil {
			t.Fatalf("%s: %v", net, err)
		}
		if !(p.AvgNS > 0) || !(p.ThroughputPPS > 0) {
			t.Errorf("%s: empty point %+v", net, p)
		}
	}
}

func TestDragonflyHasNoModel(t *testing.T) {
	cfg := Config{Nodes: 64, PacketsPerNode: 10, Seed: 1}
	_, err := EvalOpenLoop("dragonfly", traffic.Transpose(64), 0.5, cfg)
	if err == nil || !strings.Contains(err.Error(), "packet tier") {
		t.Fatalf("EvalOpenLoop(dragonfly) = %v, want an error pointing at the packet tier", err)
	}
}

// TestRefusesOutsideEnvelope pins that the twin answers no cell it is not
// calibrated for: a pattern, a load or a network outside the envelope is an
// error pointing at the packet tier, not a number.
func TestRefusesOutsideEnvelope(t *testing.T) {
	cfg := Config{Nodes: 64, PacketsPerNode: 10, Seed: 1}
	for _, c := range []struct {
		network string
		pat     *traffic.Pattern
		load    float64
	}{
		{"baldur", traffic.Hotspot(64, 0), 0.5},
		{"baldur", traffic.Transpose(64), 0.7},
		{"multibutterfly", traffic.Transpose(64), MaxLoad + 1e-9},
		{"ideal", traffic.Transpose(64), 0},
		{"fattree", traffic.Transpose(64), 0.5},
	} {
		_, err := EvalOpenLoop(c.network, c.pat, c.load, cfg)
		if err == nil || !strings.Contains(err.Error(), "packet tier") {
			t.Errorf("EvalOpenLoop(%s, %s, %g) = %v, want an error pointing at the packet tier",
				c.network, c.pat.Name, c.load, err)
		}
		if InEnvelope(c.network, c.pat.Name, c.load) {
			t.Errorf("InEnvelope(%s, %s, %g) = true", c.network, c.pat.Name, c.load)
		}
	}
}
