package exp

import (
	"strings"
	"testing"
)

func TestAblationsSuite(t *testing.T) {
	rows, err := Ablations(ablationScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("ablations = %d, want 5", len(rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}

	if w := byName["wiring"]; w.ValueB < 10*w.ValueA || w.ValueB < 5 {
		t.Errorf("wiring ablation weak: random %.2f%% vs regular %.2f%%", w.ValueA, w.ValueB)
	}
	if b := byName["beb"]; b.ValueA <= b.ValueB {
		t.Errorf("BEB did not improve goodput: %v vs %v", b.ValueA, b.ValueB)
	}
	if d := byName["dragonfly-routing"]; d.ValueA >= d.ValueB {
		t.Errorf("UGAL not better than minimal: %v vs %v", d.ValueA, d.ValueB)
	}
	if m := byName["multiplicity"]; m.ValueB >= m.ValueA {
		t.Errorf("m=4 not better than m=1: %v vs %v", m.ValueB, m.ValueA)
	}
	if l := byName["link-rate"]; l.ValueB >= l.ValueA {
		t.Errorf("400G not faster than 25G: %v vs %v", l.ValueB, l.ValueA)
	}
	// 400G latency should approach the 200 ns propagation floor.
	if l := byName["link-rate"]; l.ValueB > 300 {
		t.Errorf("400G avg = %.0f ns, expected near the 200 ns fiber floor", l.ValueB)
	}

	out := RenderAblations(rows)
	for _, want := range []string{"wiring", "beb", "dragonfly-routing", "multiplicity", "link-rate"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
