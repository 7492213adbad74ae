package elecnet

import (
	"fmt"

	"baldur/internal/sim"
)

// FatTree is the 3-level k-ary fat-tree baseline with full bisection
// bandwidth ([17]): k pods of k/2 edge and k/2 aggregation switches plus
// (k/2)^2 core switches, k^3/4 hosts, and adaptive up-routing (least-loaded
// upward port, deterministic downward route).
type FatTree struct {
	*engine
	k int
}

const (
	// fatTreeVCs covers the longest route, edge-agg-core-agg-edge: five
	// routers. The NIC-to-edge hop and the four router-to-router hops
	// hold VCs 0..4, so every buffered hop climbs a VC and the route is
	// deadlock-free; the ejection queue shares VC 4.
	fatTreeVCs = 5
	// Level link delays (Table VI).
	FatTreeEdgeDelay = 10 * sim.Nanosecond  // host-edge
	FatTreeAggDelay  = 50 * sim.Nanosecond  // edge-aggregation
	FatTreeCoreDelay = 100 * sim.Nanosecond // aggregation-core
)

// FatTreeConfig configures the fat-tree.
type FatTreeConfig struct {
	// K is the switch radix (even, >= 4). Default 16, giving 1,024 hosts
	// (the paper's 1K-scale configuration).
	K int
	// Shards selects the conservative-parallel shard count (0 or 1:
	// serial). The network partitions by pod (hosts, edge and aggregation
	// switches together) with core switches dealt round-robin, so only
	// agg-core links cross shards and the lookahead is FatTreeCoreDelay.
	// Statistics are bit-identical for any value.
	Shards int
}

// FatTreeNodes returns the host count for radix k: k^3/4.
func FatTreeNodes(k int) int { return k * k * k / 4 }

func (cfg FatTreeConfig) withDefaults() (FatTreeConfig, error) {
	if cfg.K == 0 {
		cfg.K = 16
	}
	if cfg.K < 4 || cfg.K%2 != 0 {
		return cfg, fmt.Errorf("elecnet: fat-tree k = %d, want even >= 4", cfg.K)
	}
	return cfg, nil
}

// NewFatTree builds the fat-tree network.
func NewFatTree(cfg FatTreeConfig) (*FatTree, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	k := cfg.K
	half := k / 2
	numEdge := k * half // k pods x k/2
	numAgg := k * half  // k pods x k/2
	numCore := half * half
	hosts := k * k * k / 4

	net := &FatTree{
		engine: newEngine("fattree", fatTreeVCs),
		k:      k,
	}
	net.initRouters(numEdge+numAgg+numCore, k, k)
	net.initNICs(hosts)

	edgeID := func(pod, e int) int32 { return int32(pod*half + e) }
	aggID := func(pod, a int) int32 { return int32(numEdge + pod*half + a) }
	coreID := func(c int) int32 { return int32(numEdge + numAgg + c) }

	// Hosts: host id = pod*(k^2/4) + e*(k/2) + h.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for hp := 0; hp < half; hp++ {
				node := int32(pod*half*half + e*half + hp)
				net.connectNIC(node, edgeID(pod, e), hp, FatTreeEdgeDelay)
				net.connectEject(edgeID(pod, e), hp, node, FatTreeEdgeDelay)
			}
		}
	}
	// Edge <-> Agg: all-to-all within a pod. Edge up-port half+a connects
	// agg a's down-port e.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				net.connect(edgeID(pod, e), half+a, aggID(pod, a), e, FatTreeAggDelay)
				net.connect(aggID(pod, a), e, edgeID(pod, e), half+a, FatTreeAggDelay)
			}
		}
	}
	// Agg <-> Core: agg a's up-port half+u connects core a*half+u, whose
	// port pod connects back.
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			for u := 0; u < half; u++ {
				c := a*half + u
				net.connect(aggID(pod, a), half+u, coreID(c), pod, FatTreeCoreDelay)
				net.connect(coreID(c), pod, aggID(pod, a), half+u, FatTreeCoreDelay)
			}
		}
	}

	hostPod := func(node int) int { return node / (half * half) }
	hostEdge := func(node int) int { return (node / half) % half }
	hostPort := func(node int) int { return node % half }

	net.route = func(n *engine, r *router, st *pktState) int {
		id := int(r.id)
		dst := st.pkt.Dst
		dPod, dEdge, dPort := hostPod(dst), hostEdge(dst), hostPort(dst)
		switch {
		case id < numEdge: // edge switch
			pod, e := id/half, id%half
			if pod == dPod && e == dEdge {
				return dPort // eject
			}
			// Adaptive up: least queue, then most credits.
			return bestUpPort(r, half, st.vc(n.vcs))
		case id < numEdge+numAgg: // aggregation switch
			pod := (id - numEdge) / half
			if pod == dPod {
				return dEdge // down to the destination edge
			}
			return bestUpPort(r, half, st.vc(n.vcs))
		default: // core switch
			return dPod // down to the destination pod
		}
	}
	// One pod per partition unit; cores are dealt round-robin across
	// pods, so every cross-shard link is an agg-core (L3) link.
	net.partition(cfg.Shards, k,
		func(i int) int {
			switch {
			case i < numEdge:
				return i / half
			case i < numEdge+numAgg:
				return (i - numEdge) / half
			default:
				return (i - numEdge - numAgg) % k
			}
		},
		func(node int) int { return node / (half * half) })
	return net, nil
}

// bestUpPort selects the least-congested upward port (ports half..k-1).
func bestUpPort(r *router, half int, vc int) int {
	best := half
	for u := half + 1; u < len(r.out); u++ {
		cu, cb := &r.out[u], &r.out[best]
		if cu.queueLen() < cb.queueLen() ||
			(cu.queueLen() == cb.queueLen() && cu.credits[vc] > cb.credits[vc]) {
			best = u
		}
	}
	return best
}

// K returns the fat-tree radix.
func (f *FatTree) K() int { return f.k }
