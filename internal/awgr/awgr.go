// Package awgr implements the Sec VII quantitative comparison between
// Baldur and an Arrayed Waveguide Grating Router (AWGR) based optical
// packet-switching network at the 32-node scale: a 32-radix AWGR that can
// deliver up to 3 packets per output port in parallel on 3 wavelengths,
// with electrical header processing.
//
// Paper results at 32 nodes: Baldur (multiplicity 3) consumes 0.7 W/node of
// TL-chip power versus 4.2 W/node for the AWGR network (receivers, SerDes,
// header-processing buffers, tunable wavelength converters), and the AWGR
// pays ~90 ns of electrical header processing per packet versus Baldur's
// 5 x 0.94 ns of in-flight switching.
package awgr

import (
	"math"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/tl"
)

// AWGR per-node power components (watts). The split follows the text of
// Sec VII: optical receivers, SerDes for header processing, packet buffers
// for the electrical control path, and tunable wavelength converters (TWC).
const (
	ReceiverW  = 1.0
	SerDesW    = 0.693
	BufferW    = 1.5
	TWCW       = 1.0
	Wavelength = 3 // parallel packets per output port
	Radix      = 32
)

// AWGRPowerPerNode returns the AWGR network's per-node power, excluding the
// server transceivers/SerDes common to both designs (the paper excludes
// them too).
func AWGRPowerPerNode() float64 {
	return ReceiverW + SerDesW + BufferW + TWCW
}

// BaldurPowerPerNode returns Baldur's per-node TL-chip power at 32 nodes
// with multiplicity 3 (the paper's 0.7 W figure).
func BaldurPowerPerNode() float64 {
	const nodes = 32
	m := 3
	stages := int(math.Round(math.Log2(nodes)))
	switches := nodes / 2 * stages
	return float64(switches) * tl.SwitchPowerW(m) / nodes
}

// HeaderLatency returns the per-switch header-processing latency of each
// design: the AWGR's electrical processing (90 ns, Mellanox-class [54])
// versus Baldur's optical switch latency at multiplicity 3.
func HeaderLatency() (awgrNS, baldurPerStageNS, baldurTotalNS float64) {
	awgrNS = 90
	baldurPerStageNS = tl.SwitchLatencyNS(3)
	baldurTotalNS = baldurPerStageNS * 5 // log2(32) stages
	return
}

// Comparison bundles the Sec VII head-to-head numbers.
type Comparison struct {
	Nodes               int
	BaldurMultiplicity  int
	BaldurPowerW        float64
	AWGRPowerW          float64
	PowerRatio          float64
	BaldurSwitchNS      float64 // total in-flight switching, all stages
	AWGRHeaderNS        float64
	AWGRScalabilityCap  int // node limit of AWGR networks per [24]
	BaldurScalabilityOK bool
}

// Compare computes the comparison table.
func Compare() Comparison {
	b := BaldurPowerPerNode()
	a := AWGRPowerPerNode()
	awgrNS, _, baldurNS := HeaderLatency()
	return Comparison{
		Nodes:               32,
		BaldurMultiplicity:  3,
		BaldurPowerW:        b,
		AWGRPowerW:          a,
		PowerRatio:          a / b,
		BaldurSwitchNS:      baldurNS,
		AWGRHeaderNS:        awgrNS,
		AWGRScalabilityCap:  128 << 10, // 128K nodes with 32-radix AWGRs [24]
		BaldurScalabilityOK: true,
	}
}

// BaldurZeroLoadLatency returns Baldur's zero-load one-way latency at the
// 32-node scale (for context next to the AWGR's header cost).
func BaldurZeroLoadLatency() sim.Duration {
	stages := 5
	return 2*netsim.HostLinkDelay +
		sim.Duration(stages)*sim.Nanoseconds(tl.SwitchLatencyNS(3)) +
		sim.SerializationTime(netsim.PacketSize, netsim.LineRate)
}
