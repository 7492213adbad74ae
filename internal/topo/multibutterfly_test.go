package topo

import (
	"testing"
	"testing/quick"
)

func TestRejectsBadParameters(t *testing.T) {
	if _, err := NewMultiButterfly(100, 1, 0); err == nil {
		t.Error("non-power-of-two accepted")
	}
	if _, err := NewMultiButterfly(2, 1, 0); err == nil {
		t.Error("2-node network accepted")
	}
	if _, err := NewMultiButterfly(16, 0, 0); err == nil {
		t.Error("multiplicity 0 accepted")
	}
	if _, err := NewMultiButterfly(16, maxWireMultiplicity+1, 0); err == nil {
		t.Error("multiplicity past the packed entry's port field accepted")
	}
}

// TestPackedWireLimits round-trips the largest switch index and port the
// packed wiring entry admits through OutWire.
func TestPackedWireLimits(t *testing.T) {
	want := PortRef{Switch: maxWireNodes - 1, Port: 2*maxWireMultiplicity - 1}
	mb := &MultiButterfly{M: 1, wiring: []wire{packWire(want.Switch, int(want.Port))}}
	if got := mb.OutWire(0, 0, 0, 0); got != want {
		t.Errorf("OutWire = %+v, want %+v", got, want)
	}
}

func TestGeometry(t *testing.T) {
	mb, err := NewMultiButterfly(1024, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Stages != 10 {
		t.Errorf("stages = %d, want 10", mb.Stages)
	}
	if mb.SwitchesPerStage() != 512 {
		t.Errorf("switches/stage = %d, want 512", mb.SwitchesPerStage())
	}
	if mb.TotalSwitches() != 5120 {
		t.Errorf("total switches = %d, want 5120", mb.TotalSwitches())
	}
}

func TestWiringIsPerfectMatching(t *testing.T) {
	// Every (switch, input port) pair at stage s+1 must be the target of
	// exactly one output wire from stage s... except unused slack: the
	// wire counts are equal, so the matching must be a bijection. The
	// largest multiplicity fills the packed entry's port field.
	for _, m := range []int{3, maxWireMultiplicity} {
		mb, err := NewMultiButterfly(64, m, 7)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < mb.Stages-1; s++ {
			seen := make(map[PortRef]bool)
			for k := int32(0); k < int32(mb.SwitchesPerStage()); k++ {
				for d := 0; d < 2; d++ {
					for p := 0; p < m; p++ {
						ref := mb.OutWire(s, k, d, p)
						if seen[ref] {
							t.Fatalf("m=%d stage %d: input %v targeted twice", m, s, ref)
						}
						seen[ref] = true
						if ref.Switch < 0 || int(ref.Switch) >= mb.SwitchesPerStage() {
							t.Fatalf("m=%d stage %d: switch %d out of range", m, s, ref.Switch)
						}
						if ref.Port < 0 || int(ref.Port) >= 2*m {
							t.Fatalf("m=%d stage %d: port %d out of range", m, s, ref.Port)
						}
					}
				}
			}
			// Bijection: every input port of stage s+1 covered.
			if got, want := len(seen), mb.SwitchesPerStage()*2*m; got != want {
				t.Fatalf("m=%d stage %d: %d inputs covered, want %d", m, s, got, want)
			}
		}
	}
}

func TestWiringRespectsSortingGroups(t *testing.T) {
	// A direction-d wire from a stage-s switch in group g must land in
	// stage-(s+1) group (g<<1)|d.
	mb, err := NewMultiButterfly(128, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < mb.Stages-1; s++ {
		nextGroupSize := mb.SwitchesPerStage() >> (s + 1)
		for k := int32(0); k < int32(mb.SwitchesPerStage()); k++ {
			g, _ := mb.GroupOf(s, k)
			for d := 0; d < 2; d++ {
				for p := 0; p < mb.M; p++ {
					ref := mb.OutWire(s, k, d, p)
					wantGroup := g<<1 | d
					gotGroup := int(ref.Switch) / nextGroupSize
					if gotGroup != wantGroup {
						t.Fatalf("stage %d sw %d dir %d: landed in group %d, want %d",
							s, k, d, gotGroup, wantGroup)
					}
				}
			}
		}
	}
}

// followPath walks a packet from src to dst through the wiring, always
// taking path 0, and returns the node it reaches.
func followPath(mb *MultiButterfly, src, dst int) int {
	sw, _ := mb.InjectionSwitch(src)
	for s := 0; s < mb.Stages; s++ {
		d := mb.RoutingBit(dst, s)
		ref := mb.OutWire(s, sw, d, 0)
		sw = ref.Switch
	}
	return int(sw) // after the last stage, Switch is the node id
}

func TestRoutingReachesDestination(t *testing.T) {
	mb, err := NewMultiButterfly(256, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < mb.Nodes; src += 17 {
		for dst := 0; dst < mb.Nodes; dst += 13 {
			if got := followPath(mb, src, dst); got != dst {
				t.Fatalf("src %d -> dst %d arrived at %d", src, dst, got)
			}
		}
	}
}

func TestRoutingReachesDestinationAllPathsProperty(t *testing.T) {
	mb, err := NewMultiButterfly(64, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := func(src, dst uint8, pathChoices []uint8) bool {
		s0 := int(src) % mb.Nodes
		d0 := int(dst) % mb.Nodes
		sw, _ := mb.InjectionSwitch(s0)
		for s := 0; s < mb.Stages; s++ {
			d := mb.RoutingBit(d0, s)
			p := 0
			if s < len(pathChoices) {
				p = int(pathChoices[s]) % mb.M
			}
			ref := mb.OutWire(s, sw, d, p)
			sw = ref.Switch
		}
		return int(sw) == d0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRoutingBits(t *testing.T) {
	mb, _ := NewMultiButterfly(16, 1, 0)
	bits := mb.RoutingBits(0b1010)
	want := []bool{true, false, true, false}
	for i := range want {
		if bits[i] != want[i] {
			t.Errorf("bit %d = %v, want %v (MSB first)", i, bits[i], want[i])
		}
	}
}

func TestDeterministicWiring(t *testing.T) {
	a, _ := NewMultiButterfly(128, 3, 42)
	b, _ := NewMultiButterfly(128, 3, 42)
	c, _ := NewMultiButterfly(128, 3, 43)
	same, diff := true, false
	for s := 0; s < a.Stages; s++ {
		for k := int32(0); k < int32(a.SwitchesPerStage()); k++ {
			for d := 0; d < 2; d++ {
				for p := 0; p < a.M; p++ {
					if a.OutWire(s, k, d, p) != b.OutWire(s, k, d, p) {
						same = false
					}
					if a.OutWire(s, k, d, p) != c.OutWire(s, k, d, p) {
						diff = true
					}
				}
			}
		}
	}
	if !same {
		t.Error("same seed produced different wirings")
	}
	if !diff {
		t.Error("different seeds produced identical wirings")
	}
}

func TestWiringIsRandomized(t *testing.T) {
	// The matching must not be the identity butterfly: with 64x2 wires a
	// fully regular wiring is vanishingly unlikely under a random seed.
	mb, _ := NewMultiButterfly(64, 2, 9)
	regular := true
	for k := int32(0); k < int32(mb.SwitchesPerStage()); k++ {
		ref0 := mb.OutWire(0, k, 0, 0)
		ref1 := mb.OutWire(0, k, 0, 1)
		if ref0.Switch != ref1.Switch {
			regular = false
			break
		}
	}
	if regular {
		t.Error("wiring looks regular; randomization missing")
	}
}

func TestInjectionSwitch(t *testing.T) {
	mb, _ := NewMultiButterfly(16, 2, 0)
	sw, port := mb.InjectionSwitch(5)
	if sw != 2 || port != 1 {
		t.Errorf("InjectionSwitch(5) = (%d,%d), want (2,1)", sw, port)
	}
}

func TestGroupOf(t *testing.T) {
	mb, _ := NewMultiButterfly(64, 1, 0) // 32 switches/stage
	// Stage 0: one group.
	if g, base := mb.GroupOf(0, 31); g != 0 || base != 0 {
		t.Errorf("stage0 GroupOf(31) = (%d,%d)", g, base)
	}
	// Stage 2: 4 groups of 8.
	if g, base := mb.GroupOf(2, 17); g != 2 || base != 16 {
		t.Errorf("stage2 GroupOf(17) = (%d,%d)", g, base)
	}
}
