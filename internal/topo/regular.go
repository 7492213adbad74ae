package topo

// NewRegularButterfly builds a classic (non-randomized) butterfly wiring
// with multiplicity m: structurally identical to NewMultiButterfly, but the
// inter-stage connections follow the deterministic butterfly permutation
// (all m wires of a direction land on the canonical next switch). It exists
// as the ablation baseline for the paper's randomization claim: without
// random matchings the network has no expansion property, so adversarial
// permutations (e.g. transpose) concentrate traffic and the drop rate does
// not improve with scale-appropriate multiplicity (Sec IV-E, [14], [19]).
func NewRegularButterfly(nodes, m int) (*MultiButterfly, error) {
	mb, err := newWiring(nodes, m)
	if err != nil {
		return nil, err
	}
	n := mb.Stages
	switchesPerStage := nodes / 2
	// Regular butterfly: a switch k at stage s serving group g (of size
	// groupSize switches) sends its direction-d wires to the switch at
	// the same relative position within the halved next-stage group.
	for s := 0; s < n-1; s++ {
		groups := 1 << s
		groupSize := switchesPerStage / groups
		nextGroupSize := groupSize / 2
		for k := 0; k < switchesPerStage; k++ {
			g := k / groupSize
			rel := k % groupSize
			for d := 0; d < 2; d++ {
				nextGroup := g<<1 | d
				next := int32(nextGroup*nextGroupSize + rel%nextGroupSize)
				for p := 0; p < m; p++ {
					// All m wires of a direction go to the same
					// canonical switch; distinct input ports keep
					// the wiring a perfect matching. Which input
					// port is irrelevant functionally, but the
					// two source switches sharing a target must
					// not collide: switches rel and
					// rel+nextGroupSize both map to the same
					// next switch, on disjoint port ranges.
					half := (rel / nextGroupSize) & 1
					port := half*m + p
					mb.wiring[mb.wireIndex(s, k, d, p)] = packWire(next, port)
				}
			}
		}
	}
	return mb, nil
}
