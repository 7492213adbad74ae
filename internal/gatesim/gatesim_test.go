package gatesim

import (
	"testing"

	"baldur/internal/optsig"
)

// pulseAt builds a signal with a single pulse.
func pulseAt(start, width Fs) *optsig.Signal {
	s := &optsig.Signal{}
	s.AddPulse(start, width)
	return s
}

func TestInverter(t *testing.T) {
	c := New(Config{})
	in := c.NewNode("in")
	out := c.Not(in, "out")
	probe := c.Probe(out)
	c.PlaySignal(in, pulseAt(10000, 5000))
	c.Run(100000)

	// Output idles high (inverted dark input), drops at 10000+delay,
	// rises again at 15000+delay.
	if !c.Level(out) {
		t.Error("inverter output should end high")
	}
	edges := probe.Edges()
	if len(edges) != 3 {
		t.Fatalf("edges = %d, want 3 (initial high, fall, rise)", len(edges))
	}
	if !edges[0].Level || edges[1].Level || !edges[2].Level {
		t.Errorf("edge polarity wrong: %v", edges)
	}
	if edges[1].T != 10000+GateDelayFs {
		t.Errorf("fall at %d, want %d", edges[1].T, 10000+GateDelayFs)
	}
	if edges[2].T != 15000+GateDelayFs {
		t.Errorf("rise at %d, want %d", edges[2].T, 15000+GateDelayFs)
	}
}

func TestAndGate(t *testing.T) {
	c := New(Config{})
	a := c.NewNode("a")
	b := c.NewNode("b")
	out := c.And(a, b, "out")
	probe := c.Probe(out)
	c.PlaySignal(a, pulseAt(1000, 10000)) // a: 1000..11000
	c.PlaySignal(b, pulseAt(5000, 10000)) // b: 5000..15000
	c.Run(100000)
	p := probe.Pulses()
	if len(p) != 1 {
		t.Fatalf("pulses = %d, want 1", len(p))
	}
	want := optsig.Pulse{Start: 5000 + GateDelayFs, End: 11000 + GateDelayFs}
	if p[0] != want {
		t.Errorf("AND pulse = %v, want %v", p[0], want)
	}
}

func TestGateTruthTables(t *testing.T) {
	cases := []struct {
		name string
		mk   func(c *Circuit, a, b Node) Node
		fn   func(a, b bool) bool
	}{
		{"and", func(c *Circuit, a, b Node) Node { return c.And(a, b, "o") }, func(a, b bool) bool { return a && b }},
		{"or", func(c *Circuit, a, b Node) Node { return c.Or(a, b, "o") }, func(a, b bool) bool { return a || b }},
		{"nor", func(c *Circuit, a, b Node) Node { return c.Nor(a, b, "o") }, func(a, b bool) bool { return !(a || b) }},
		{"nand", func(c *Circuit, a, b Node) Node { return c.Nand(a, b, "o") }, func(a, b bool) bool { return !(a && b) }},
		{"andnot", func(c *Circuit, a, b Node) Node { return c.AndNot(a, b, "o") }, func(a, b bool) bool { return a && !b }},
	}
	for _, tc := range cases {
		for _, va := range []bool{false, true} {
			for _, vb := range []bool{false, true} {
				c := New(Config{})
				a := c.NewNode("a")
				b := c.NewNode("b")
				out := tc.mk(c, a, b)
				if va {
					c.PlaySignal(a, pulseAt(1000, 1000000))
				}
				if vb {
					c.PlaySignal(b, pulseAt(1000, 1000000))
				}
				c.Run(500000)
				if got := c.Level(out); got != tc.fn(va, vb) {
					t.Errorf("%s(%v,%v) = %v, want %v", tc.name, va, vb, got, tc.fn(va, vb))
				}
			}
		}
	}
}

func TestCombinePassiveOR(t *testing.T) {
	c := New(Config{})
	a := c.NewNode("a")
	b := c.NewNode("b")
	d := c.NewNode("d")
	out := c.Combine("out", a, b, d)
	probe := c.Probe(out)
	c.PlaySignal(a, pulseAt(1000, 2000))
	c.PlaySignal(b, pulseAt(2000, 3000))
	c.PlaySignal(d, pulseAt(10000, 1000))
	c.Run(100000)
	p := probe.Pulses()
	// Passive: zero delay. a|b covers 1000..5000, d covers 10000..11000.
	if len(p) != 2 {
		t.Fatalf("pulses = %v", p)
	}
	if p[0] != (optsig.Pulse{Start: 1000, End: 5000}) {
		t.Errorf("first pulse = %v", p[0])
	}
	if p[1] != (optsig.Pulse{Start: 10000, End: 11000}) {
		t.Errorf("second pulse = %v", p[1])
	}
	if c.GateCount() != 0 {
		t.Errorf("combiner consumed %d active gates", c.GateCount())
	}
	if c.PassiveCount() != 1 {
		t.Errorf("passive count = %d", c.PassiveCount())
	}
}

func TestDelayElement(t *testing.T) {
	c := New(Config{})
	in := c.NewNode("in")
	out := c.Delay(in, 132000, "wd") // the 132 ps WD0 element
	probe := c.Probe(out)
	c.PlaySignal(in, pulseAt(5000, 7000))
	c.Run(1000000)
	p := probe.Pulses()
	if len(p) != 1 || p[0] != (optsig.Pulse{Start: 137000, End: 144000}) {
		t.Errorf("delayed pulse = %v", p)
	}
}

func TestSRLatch(t *testing.T) {
	c := New(Config{})
	set := c.NewNode("set")
	reset := c.NewNode("reset")
	l := c.NewSRLatch(set, reset, "latch")
	c.PlaySignal(set, pulseAt(10000, 2000))
	c.PlaySignal(reset, pulseAt(50000, 2000))
	c.Run(200000)
	if c.Level(l.Q) {
		t.Error("Q should be low after reset")
	}
	if !c.Level(l.QBar) {
		t.Error("QBar should be high after reset")
	}
	// Re-run a fresh circuit stopping between set and reset.
	c2 := New(Config{})
	set2 := c2.NewNode("set")
	reset2 := c2.NewNode("reset")
	l2 := c2.NewSRLatch(set2, reset2, "latch")
	c2.PlaySignal(set2, pulseAt(10000, 2000))
	c2.Run(30000)
	if !c2.Level(l2.Q) {
		t.Error("Q should hold high after set pulse ends")
	}
	if c2.GateCount() != 2 {
		t.Errorf("latch gate count = %d, want 2", c2.GateCount())
	}
}

func TestSRLatchResetDominates(t *testing.T) {
	c := New(Config{})
	set := c.NewNode("set")
	reset := c.NewNode("reset")
	l := c.NewSRLatch(set, reset, "latch")
	c.PlaySignal(set, pulseAt(10000, 10000))
	c.PlaySignal(reset, pulseAt(10000, 10000))
	c.Run(100000)
	if c.Level(l.Q) {
		t.Error("simultaneous S+R should leave Q low (reset dominates)")
	}
}

func TestGateDelayVariationBounded(t *testing.T) {
	c := New(Config{DelayVariation: 0.10, Seed: 7})
	for i := 0; i < 200; i++ {
		d := c.gateDelayFor()
		lo := GateDelayFs * 899 / 1000
		hi := GateDelayFs*1101/1000 + 1
		if d < lo || d > hi {
			t.Fatalf("gate delay %d outside +-10%% of %d", d, GateDelayFs)
		}
	}
}

func TestJitterPreservesOrdering(t *testing.T) {
	// With violent jitter, a probed output must still be a legal signal
	// (strictly increasing alternating edges), because outputDriver
	// enforces per-gate transition ordering.
	c := New(Config{JitterSigma: 3000, Seed: 3})
	in := c.NewNode("in")
	out := c.Buf(in, "out")
	probe := c.Probe(out)
	var s optsig.Signal
	for i := Fs(0); i < 100; i++ {
		s.AddPulse(i*20000, 9000)
	}
	c.PlaySignal(in, &s)
	c.Run(100 * 20000 * 2)
	edges := probe.Edges()
	for i := 1; i < len(edges); i++ {
		if edges[i].T <= edges[i-1].T {
			t.Fatalf("edges out of order at %d", i)
		}
		if edges[i].Level == edges[i-1].Level {
			t.Fatalf("edges not alternating at %d", i)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *optsig.Signal {
		c := New(Config{DelayVariation: 0.1, JitterSigma: 500, Seed: 42})
		in := c.NewNode("in")
		n1 := c.Not(in, "n1")
		n2 := c.And(in, n1, "glitch")
		probe := c.Probe(n2)
		var s optsig.Signal
		for i := Fs(0); i < 20; i++ {
			s.AddPulse(i*30000, 14000)
		}
		c.PlaySignal(in, &s)
		c.Run(2000000)
		return probe.Clone()
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Error("identical seeds produced different waveforms")
	}
}

func TestFanInLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("3-input gate did not panic")
		}
	}()
	c := New(Config{})
	a, b, d := c.NewNode("a"), c.NewNode("b"), c.NewNode("d")
	c.newGate(3, func(v []bool) bool { return v[0] }, []Node{a, b, d}, "bad")
}

func TestCombineNoInputsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Combine() did not panic")
		}
	}()
	New(Config{}).Combine("empty")
}

func TestBufPropagates(t *testing.T) {
	c := New(Config{})
	in := c.NewNode("in")
	out := c.Buf(in, "out")
	c.PlaySignal(in, pulseAt(1000, 1000000))
	c.Run(500000)
	if !c.Level(out) {
		t.Error("buffer did not propagate high level")
	}
	if c.NodeName(out) != "out" {
		t.Errorf("NodeName = %q", c.NodeName(out))
	}
}
