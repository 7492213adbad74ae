package simbench

import "testing"

// TestRefChecksum: every call of Ref with one op count does the same work,
// so the same checksum comes back, and the checksum depends on every
// operation, so a different op count changes it.
func TestRefChecksum(t *testing.T) {
	const ops = 20_000
	a, b := Ref(ops), Ref(ops)
	if a != b {
		t.Errorf("Ref(%d) = %#x, then %#x: the calls did different work", ops, a, b)
	}
	for _, other := range []int{0, 1, ops - 1, ops + 1} {
		if c := Ref(other); c == a {
			t.Errorf("Ref(%d) = Ref(%d) = %#x: the checksum misses operations", other, ops, c)
		}
	}
}

// TestRatioAlternates: Ratio calls each body once per pair, and the body
// that runs first alternates from pair to pair.
func TestRatioAlternates(t *testing.T) {
	var order []byte
	Ratio(4, func() { order = append(order, 'a') }, func() { order = append(order, 'b') })
	if got := string(order); got != "abbaabba" {
		t.Errorf("call order %q, want %q", got, "abbaabba")
	}
}
