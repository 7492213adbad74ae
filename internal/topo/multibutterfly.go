// Package topo builds the wiring of the networks simulated in this
// repository. Its centerpiece is the randomized multi-butterfly used by both
// Baldur (internal/core) and the electrical multi-butterfly baseline
// (internal/elecnet): a radix-2 multi-stage sorting network with path
// multiplicity m and random perfect matchings between stages, which provides
// the "expansion" property that makes the network immune to worst-case
// permutations (Sec IV-E, [14], [19]).
package topo

import (
	"fmt"

	"baldur/internal/prof"
	"baldur/internal/sim"
)

// PortRef addresses one input port of a switch in the next stage, or a
// destination node after the last stage.
type PortRef struct {
	Switch int32 // switch index within the next stage, or node id
	Port   int16 // input port within that switch
}

// wire is a PortRef packed into one wiring-table entry: the switch (or
// node) index above the low wirePortBits bits, the port in them. At four
// bytes it is half a padded PortRef, so the table every hop reads from is
// half the size.
type wire uint32

const wirePortBits = 8

func packWire(sw int32, port int) wire { return wire(sw)<<wirePortBits | wire(port) }

// Limits of the packed entry: node and switch indices below 2^24, ports
// (2m of them per switch) below 2^8.
const (
	maxWireNodes        = 1 << (32 - wirePortBits)
	maxWireMultiplicity = 1 << (wirePortBits - 1)
)

// MultiButterfly is the wiring of an N-node, multiplicity-m multi-butterfly.
//
// Geometry: n = log2(N) stages, each with N/2 switches of 2m inputs and 2m
// outputs (m per output direction). Stage s consumes destination bit
// (n-1-s), MSB first. Switches at stage s are partitioned into 2^s sorting
// groups of N/2^(s+1) switches; group g at stage s serves destinations whose
// top s bits equal g. The direction-d output wires of a group are connected
// to the inputs of the next stage's group (g<<1)|d by a random perfect
// matching — the randomization that yields expansion.
type MultiButterfly struct {
	Nodes  int // N, a power of two >= 4
	M      int // path multiplicity >= 1
	Stages int // log2(N)

	// wiring[wireIndex(s, k, d, p)] is where output (direction d, path p)
	// of switch k at stage s leads: a switch input at stage s+1, or, for
	// s == Stages-1, the destination node (the port is then the node's
	// receive-wire index in 0..m-1). One flat table for the whole
	// network, like Baldur's occupancy table, so one huge-page hint
	// covers all of it.
	wiring []wire
}

// wireIndex is the wiring-table slot of output (direction d, path p) of
// switch k at stage s: stage-major, then switch, direction and path.
func (mb *MultiButterfly) wireIndex(s, k, d, p int) int {
	return (s*mb.Nodes+2*k+d)*mb.M + p
}

// newWiring checks the geometry and returns a butterfly with its wiring
// table allocated and advised for huge pages, and its last stage wired:
// group g (of size 1) direction d feeds node (g<<1)|d on its m receive
// wires. The constructors then wire the stage boundaries.
func newWiring(nodes, m int) (*MultiButterfly, error) {
	n := log2(nodes)
	if n < 2 || 1<<n != nodes || nodes > maxWireNodes {
		return nil, fmt.Errorf("topo: nodes = %d, want a power of two in [4, %d]", nodes, maxWireNodes)
	}
	if m < 1 || m > maxWireMultiplicity {
		return nil, fmt.Errorf("topo: multiplicity = %d, want 1..%d", m, maxWireMultiplicity)
	}
	mb := &MultiButterfly{Nodes: nodes, M: m, Stages: n}
	mb.wiring = make([]wire, n*nodes*m)
	prof.AdviseHugePages(mb.wiring)
	for k := 0; k < nodes/2; k++ {
		for d := 0; d < 2; d++ {
			node := int32(k<<1 | d)
			for p := 0; p < m; p++ {
				mb.wiring[mb.wireIndex(n-1, k, d, p)] = packWire(node, p)
			}
		}
	}
	return mb, nil
}

// NewMultiButterfly builds the randomized wiring with the given seed. Equal
// seeds give identical networks.
func NewMultiButterfly(nodes, m int, seed uint64) (*MultiButterfly, error) {
	mb, err := newWiring(nodes, m)
	if err != nil {
		return nil, err
	}
	n := mb.Stages
	rng := sim.NewRNG(seed)
	switchesPerStage := nodes / 2

	// Wire each stage boundary group by group.
	perm := make([]int, 0)
	for s := 0; s < n-1; s++ {
		groups := 1 << s
		groupSize := switchesPerStage / groups // switches per group at stage s
		nextGroupSize := switchesPerStage / (groups * 2)
		for g := 0; g < groups; g++ {
			for d := 0; d < 2; d++ {
				// Output wires: groupSize*m of them; target
				// inputs: nextGroupSize switches x 2m ports.
				wires := groupSize * m
				if cap(perm) < wires {
					perm = make([]int, wires)
				}
				perm = perm[:wires]
				rng.Perm(perm)
				nextGroup := g<<1 | d
				nextBase := int32(nextGroup * nextGroupSize)
				for w := 0; w < wires; w++ {
					k := g*groupSize + w/m // source switch
					p := w % m             // source path
					target := perm[w]
					mb.wiring[mb.wireIndex(s, k, d, p)] = packWire(nextBase+int32(target/(2*m)), target%(2*m))
				}
			}
		}
	}

	return mb, nil
}

// InjectionSwitch returns the stage-0 switch and input port for a node's
// transmit wire: two nodes share each first-stage switch, as in a classic
// butterfly (the remaining 2m-2 input ports are unused at stage 0).
func (mb *MultiButterfly) InjectionSwitch(node int) (sw int32, port int16) {
	return int32(node >> 1), int16(node & 1)
}

// RoutingBit returns the output direction consumed at stage s for the given
// destination: bit (Stages-1-s), MSB first.
func (mb *MultiButterfly) RoutingBit(dest, s int) int {
	return (dest >> (mb.Stages - 1 - s)) & 1
}

// RoutingBits returns the full MSB-first routing-bit string for dest, one
// bit per stage — exactly the header the length-based encoding carries.
func (mb *MultiButterfly) RoutingBits(dest int) []bool {
	bits := make([]bool, mb.Stages)
	for s := 0; s < mb.Stages; s++ {
		bits[s] = mb.RoutingBit(dest, s) == 1
	}
	return bits
}

// OutWire returns where output (direction d, path p) of switch k at stage s
// leads.
func (mb *MultiButterfly) OutWire(s int, k int32, d, p int) PortRef {
	w := mb.wiring[mb.wireIndex(s, int(k), d, p)]
	return PortRef{Switch: int32(w >> wirePortBits), Port: int16(w & (1<<wirePortBits - 1))}
}

// SwitchesPerStage returns the number of switches in each stage (N/2).
func (mb *MultiButterfly) SwitchesPerStage() int { return mb.Nodes / 2 }

// TotalSwitches returns the switch count of the whole network:
// (N/2)*log2(N).
func (mb *MultiButterfly) TotalSwitches() int {
	return mb.SwitchesPerStage() * mb.Stages
}

// GroupOf returns the sorting group of switch k at stage s and the group's
// first switch index (base).
func (mb *MultiButterfly) GroupOf(s int, k int32) (group int, base int32) {
	groupSize := mb.SwitchesPerStage() >> s
	g := int(k) / groupSize
	return g, int32(g * groupSize)
}

func log2(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}
