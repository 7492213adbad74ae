package routing

import (
	"strings"
	"testing"

	"baldur/internal/sim"
)

func newRouting(t *testing.T, name string, p map[string]float64, nodes int, seed uint64) Policy {
	t.Helper()
	pol, err := New(name, p, nodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

func TestUniformCoversEveryOtherNode(t *testing.T) {
	const nodes = 16
	u := newRouting(t, "uniform", nil, nodes, 1)
	rng := sim.NewRNG(1)
	for src := 0; src < nodes; src++ {
		seen := make([]int, nodes)
		for i := 0; i < 100*nodes; i++ {
			d := u.Dest(src, rng)
			if d < 0 || d >= nodes {
				t.Fatalf("src %d: destination %d out of range [0, %d)", src, d, nodes)
			}
			seen[d]++
		}
		for d, n := range seen {
			switch {
			case d == src && n > 0:
				t.Errorf("src %d sent %d flows to itself", src, n)
			case d != src && n == 0:
				t.Errorf("src %d never sent to node %d", src, d)
			}
		}
	}
}

func TestPermutationHasNoFixedPoint(t *testing.T) {
	for _, nodes := range []int{2, 3, 16, 1000} {
		for seed := uint64(1); seed <= 20; seed++ {
			p := newRouting(t, "permutation", nil, nodes, seed)
			hit := make([]bool, nodes)
			for src := 0; src < nodes; src++ {
				d := p.Dest(src, nil)
				if d == src {
					t.Fatalf("nodes %d seed %d: src %d routed to itself", nodes, seed, src)
				}
				if hit[d] {
					t.Fatalf("nodes %d seed %d: node %d is the destination of two sources", nodes, seed, d)
				}
				hit[d] = true
			}
		}
	}
}

func TestHotspot(t *testing.T) {
	const nodes = 8
	for _, target := range []int{0, 3, nodes - 1} {
		h := newRouting(t, "hotspot", map[string]float64{"target": float64(target)}, nodes, 1)
		for src := 0; src < nodes; src++ {
			d := h.Dest(src, nil)
			want := target
			if src == target {
				want = (target + 1) % nodes // the target spills its own flows
			}
			if d != want {
				t.Errorf("target %d: src %d routed to %d, want %d", target, src, d, want)
			}
		}
	}
}

func TestHotspotRejectsOutOfRangeTarget(t *testing.T) {
	for _, target := range []float64{-1, 8, 100} {
		_, err := New("hotspot", map[string]float64{"target": target}, 8, 0)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("target %v on 8 nodes: err = %v, want out of range", target, err)
		}
	}
}
