// Package switchckt builds the complete gate-level netlist of the paper's
// all-optical 2x2 TL switch (Fig 4) on top of internal/gatesim, and
// reproduces the HSPICE validation of Sec IV-D: a packet entering an input
// is decoded clock-lessly, arbitrated, has its first routing bit masked off,
// and emerges at the designated output port roughly 0.14 ns later — or is
// dropped if the port is held by another packet.
//
// The netlist follows Fig 4 exactly at block level:
//
//	switch fabric:   SP -> AND(mask) -> WD(132 ps) -> SP -> AND(grant) -> C
//	header unit:     line activity detector -> routing/valid/mask-off
//	                 latches -> 2x2 asynchronous arbiters
//
// The line activity detector (Fig 4b) uses n=15 waveguide taps spaced
// delta=0.4T apart, so the combined activity signal holds through any dark
// gap up to 6T and falls exactly 6T after the last light: the end-of-packet
// condition of Sec IV-C. The routing bit is sampled against a theta=1.3T
// delayed copy of the input at the bit's falling edge.
package switchckt

import (
	"baldur/internal/gatesim"
	"baldur/internal/optsig"
)

// Fs is a femtosecond timestamp.
type Fs = optsig.Fs

// T is the 60 Gbps bit period in femtoseconds.
const T = optsig.BitPeriodFs

// Detector geometry from Fig 4(b).
const (
	// DetectorTaps is n, the number of delay taps in the line activity
	// detector.
	DetectorTaps = 15
	// TapDelta is delta, the spacing of the taps: 0.4T.
	TapDelta = 4 * T / 10
	// Theta is the routing-bit sampling delay: 1.3T.
	Theta = 13 * T / 10
	// EdgeDelay is the 0.5T delay used to turn activity transitions into
	// start/end pulses.
	EdgeDelay = T / 2
	// SampleWindow is the width of the falling-edge sampling pulse for
	// the routing latch (one narrow tap, 0.1T).
	SampleWindow = T / 10
	// LatchSetDelay positions the valid/mask-off latch set at 2.5T after
	// the beginning of the packet, i.e. inside the first gap period.
	LatchSetDelay = 5 * T / 2
	// FabricDelay is WD0/WD1: 132 ps, chosen so arbitration finishes
	// before the packet reaches the output multiplexers (Sec IV-C).
	FabricDelay = 132 * optsig.Picosecond
	// GrantDelay is the waveguide length of the grant select lines into
	// the output AND gates. The valid latch resets 6T (=100 ps) after the
	// last light at the *input*, but the tail of the packet reaches the
	// output ANDs FabricDelay (=132 ps) after it passed the input, so the
	// grant must be held ~32 ps longer than the latch does; routing the
	// grant through a 40 ps waveguide keeps the select window aligned
	// with the delayed data on both edges.
	GrantDelay = 40 * optsig.Picosecond
)

// HeaderUnit exposes one input's header-processing state for inspection.
type HeaderUnit struct {
	Activity gatesim.Node // line activity (high while a packet is in flight)
	Start    gatesim.Node // pulse at packet start
	End      gatesim.Node // pulse at packet end (6T after last light)
	Valid    *gatesim.SRLatch
	MaskOff  *gatesim.SRLatch
	Routing  *gatesim.SRLatch // Q=1 means the routing bit is logic "0"
	ReqOut   [2]gatesim.Node  // request for output 0 / output 1
}

// Switch is the complete 2x2 switch with multiplicity 1.
type Switch struct {
	Circuit *gatesim.Circuit
	In      [2]gatesim.Node
	Out     [2]gatesim.Node
	Header  [2]HeaderUnit
	// Grant[i][d] is the grant for input i onto output d.
	Grant [2][2]gatesim.Node
}

// Build instantiates the switch netlist in a fresh circuit with the given
// gate-timing configuration.
func Build(cfg gatesim.Config) *Switch {
	c := gatesim.New(cfg)
	s := &Switch{Circuit: c}
	for i := 0; i < 2; i++ {
		s.In[i] = c.NewNode(name("in", i))
	}

	// Header processing units, one per input.
	for i := 0; i < 2; i++ {
		s.Header[i] = buildHeader(c, s.In[i], i)
	}

	// Arbitration: one two-requester asynchronous arbiter per output port.
	for d := 0; d < 2; d++ {
		arb := c.NewArbiterN([]gatesim.Node{s.Header[0].ReqOut[d], s.Header[1].ReqOut[d]}, name("arb.out", d))
		s.Grant[0][d], s.Grant[1][d] = arb.Grants[0], arb.Grants[1]
	}

	// Switch fabric: mask off the first routing bit, delay in WD0/WD1
	// until arbitration settles, then steer through the grant-controlled
	// AND gates into the output combiners.
	var wd [2]gatesim.Node
	for i := 0; i < 2; i++ {
		masked := c.And(s.In[i], s.Header[i].MaskOff.Q, name("fabric.mask", i))
		wd[i] = c.Delay(masked, FabricDelay, name("fabric.wd", i))
	}
	var gd [2][2]gatesim.Node
	for i := 0; i < 2; i++ {
		for d := 0; d < 2; d++ {
			gd[i][d] = c.Delay(s.Grant[i][d], GrantDelay, "fabric.gd"+string(rune('0'+i))+string(rune('0'+d)))
		}
	}
	out0a := c.And(wd[0], gd[0][0], "fabric.and2")
	out0b := c.And(wd[1], gd[1][0], "fabric.and3")
	out1a := c.And(wd[0], gd[0][1], "fabric.and4")
	out1b := c.And(wd[1], gd[1][1], "fabric.and5")
	s.Out[0] = c.Combine("out0", out0a, out0b)
	s.Out[1] = c.Combine("out1", out1a, out1b)
	return s
}

func buildHeader(c *gatesim.Circuit, in gatesim.Node, idx int) HeaderUnit {
	return buildHeaderExt(c, in, idx, 0)
}

// buildHeaderExt builds a header unit whose valid and routing latches hold
// for holdExt beyond the normal end-of-packet reset. The multiplicity-m
// switch needs the extension because its data path waveguide (WD) is longer
// than the 6T end-of-packet window: the grants, which follow the valid
// latch, must stay up until the packet tail has cleared the output AND
// gates. The mask-off latch is NOT extended — it sits before the waveguide
// and must release promptly for the next packet.
func buildHeaderExt(c *gatesim.Circuit, in gatesim.Node, idx int, holdExt Fs) HeaderUnit {
	var h HeaderUnit

	// Line activity detector: the input plus 15 taps spaced 0.4T apart,
	// passively combined. The output rises with the first light and falls
	// 15*0.4T = 6T after the last light.
	taps := make([]gatesim.Node, 0, DetectorTaps+1)
	taps = append(taps, in)
	prev := in
	for k := 1; k <= DetectorTaps; k++ {
		prev = c.Delay(prev, TapDelta, name("lad.tap", idx)+num(k))
		taps = append(taps, prev)
	}
	h.Activity = c.Combine(name("lad.activity", idx), taps...)

	// Transition detection: compare activity with a 0.5T-delayed copy.
	actDelayed := c.Delay(h.Activity, EdgeDelay, name("lad.actD", idx))
	h.Start = c.AndNot(h.Activity, actDelayed, name("lad.start", idx))
	h.End = c.AndNot(actDelayed, h.Activity, name("lad.end", idx))

	// Valid and mask-off latches: set 2.5T after the packet begins (the
	// first routing bit's gap period), reset at end of packet (valid
	// optionally later, see holdExt).
	setPulse := c.Delay(h.Start, LatchSetDelay, name("lad.set", idx))
	validReset := h.End
	if holdExt > 0 {
		validReset = c.Delay(h.End, holdExt, name("lad.endHeld", idx))
	}
	h.Valid = c.NewSRLatch(setPulse, validReset, name("valid", idx))
	h.MaskOff = c.NewSRLatch(setPulse, h.End, name("maskoff", idx))

	// Routing-bit decode: a theta=1.3T delayed copy of the input sampled
	// in a narrow window at the first falling edge. Sampling is enabled
	// only while valid is still low, so payload edges never re-latch.
	// The waveguide length is trimmed by two gate delays to compensate
	// for the AndNot+And gates in the sampling path, keeping the 1.3T
	// relationship between the compared waveforms (the physical design
	// would absorb this skew into the waveguide length).
	delayed := c.Delay(in, Theta+2*gatesim.GateDelayFs, name("lad.theta", idx))
	fallTap := c.Delay(in, SampleWindow, name("lad.fallTap", idx))
	fallPulse := c.AndNot(fallTap, in, name("lad.fall", idx))
	sampleEn := c.And(fallPulse, h.Valid.QBar, name("lad.sampleEn", idx))
	setR := c.And(sampleEn, delayed, name("lad.setR", idx))
	clrR := c.AndNot(sampleEn, delayed, name("lad.clrR", idx))
	// The routing latch must persist as long as valid does: the direction
	// requests are AND(valid, routing), so clearing routing early would
	// drop a grant while the tail is still in the fabric.
	reset := c.Combine(name("lad.resetR", idx), clrR, validReset)
	h.Routing = c.NewSRLatch(setR, reset, name("routing", idx))

	// Output-port requests: routing Q=1 means the stored bit is logic "0"
	// (the pulse was 2T), which addresses output 0 at this stage.
	h.ReqOut[0] = c.And(h.Valid.Q, h.Routing.Q, name("req0.in", idx))
	h.ReqOut[1] = c.And(h.Valid.Q, h.Routing.QBar, name("req1.in", idx))
	return h
}

func name(prefix string, idx int) string {
	return prefix + string(rune('0'+idx))
}

func num(k int) string {
	if k < 10 {
		return "." + string(rune('0'+k))
	}
	return "." + string(rune('0'+k/10)) + string(rune('0'+k%10))
}

// GateCount returns the number of active TL gates in the netlist.
func (s *Switch) GateCount() int { return s.Circuit.GateCount() }

// Run advances the circuit to the given time.
func (s *Switch) Run(until Fs) { s.Circuit.Run(until) }
