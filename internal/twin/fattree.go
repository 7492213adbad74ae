package twin

import (
	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// evalFatTree is the analytical model of the k-ary fat-tree.
//
// Adaptive up-routing spreads an inter-pod flow over the half aggregation
// switches and then the half^2 cores, so the contention units are pooled
// queues: the source pod's aggregate up-capacity (c = half^2 core-facing
// wires), the destination pod's down-capacity (c = half^2 core ports into
// the pod), the destination edge's agg ports (c = half) and finally the
// destination host's single ejection port. Each pool is fed by at most
// hostsPerPod (resp. hostsPerEdge, 1-per-source) serialized flows, so with
// full bisection bandwidth the finite-source factor zeroes the fabric wait
// for admissible permutations and the NIC injection queue dominates — the
// same structure the packet engine exhibits.
func evalFatTree(pat *traffic.Pattern, load float64, cfg Config) (Point, error) {
	in, err := elecnet.AnalyticalFatTree(elecnet.FatTreeConfig{K: cfg.FatTreeK})
	if err != nil {
		return Point{}, err
	}
	k := in.K
	half := k / 2
	hosts := in.Hosts
	ser := sim.SerializationTime(netsim.PacketSize, netsim.LineRate).Seconds()
	rl := elecnet.RouterLatency.Seconds()
	l1 := elecnet.FatTreeEdgeDelay.Seconds()
	l2 := elecnet.FatTreeAggDelay.Seconds()
	l3 := elecnet.FatTreeCoreDelay.Seconds()

	fl, interval := openFlows(pat, load, cfg)
	if len(fl) == 0 {
		return Point{}, nil
	}

	hostPod := func(n int) int { return n / (half * half) }
	hostEdge := func(n int) int { return n / half } // global edge index

	// Pools, keyed by the deterministic part of the route.
	type pool struct {
		a float64
		F int
	}
	upPod := make([]pool, k)         // src pod agg->core capacity, c = half^2
	downPod := make([]pool, k)       // core->dst pod capacity, c = half^2
	downEdge := make([]pool, k*half) // agg->dst edge capacity, c = half
	eject := make([]pool, hosts)     // edge->host port, c = 1
	for _, ff := range fl {
		sp, dp := hostPod(ff.src), hostPod(ff.dst)
		se, de := hostEdge(ff.src), hostEdge(ff.dst)
		occ := ff.rate * ser
		if sp != dp {
			upPod[sp].a += occ
			upPod[sp].F++
			downPod[dp].a += occ
			downPod[dp].F++
		}
		if se != de {
			downEdge[de].a += occ
			downEdge[de].F++
		}
		eject[ff.dst].a += occ
		eject[ff.dst].F++
	}

	// kIntf models imperfect spreading: the per-packet least-queue up-port
	// choice is myopic, so simultaneous arrivals race onto the same port
	// and see a fraction of the single-port M/D/1 wait even when the pool
	// as a whole has spare capacity. Calibrated against the packet engine.
	const kIntf = 0.5
	intf := func(rho float64) float64 { return kIntf * md1Wait(rho, ser) }

	c2 := half * half
	T := interval * float64(cfg.PacketsPerNode)
	lat := make([]flowLat, len(fl))
	rhoMax, saturated := 0.0, false
	for i, ff := range fl {
		sp, dp := hostPod(ff.src), hostPod(ff.dst)
		se, de := hostEdge(ff.src), hostEdge(ff.dst)
		occ := ff.rate * ser

		// Base latency by route class.
		var base float64
		switch {
		case se == de: // same edge switch
			base = 2*l1 + rl + ser
		case sp == dp: // same pod, via aggregation
			base = 2*l1 + 2*l2 + 3*rl + ser
		default: // inter-pod, via core
			base = 2*l1 + 2*l2 + 2*l3 + 5*rl + ser
		}

		pa := pathAcc{base: base, T: T}
		// NIC injection: M/D/1 at the flow's own offered load.
		nrho := ff.rate * ser
		pa.add(md1Wait(nrho, ser), nrho, tailDecay(1, nrho, ser), 1)
		if sp != dp {
			up, down := upPod[sp], downPod[dp]
			upRho, downRho := up.a/float64(c2), down.a/float64(c2)
			pa.add(mdcWait(c2, up.a, ser)*fsFactor(up.F, c2)+intf(upRho), upRho,
				tailDecay(c2, upRho, ser), 1)
			pa.add(mdcWait(c2, down.a, ser)*fsFactor(down.F, c2)+intf(downRho), downRho,
				tailDecay(c2, downRho, ser), 1)
		}
		if se != de {
			dq := downEdge[de]
			dqRho := dq.a / float64(half)
			pa.add(mdcWait(half, dq.a, ser)*fsFactor(dq.F, half)+intf(dqRho), dqRho,
				tailDecay(half, dqRho, ser), 1)
		}
		// Ejection port: single server; the flow's own packets are already
		// serialized upstream, so only cross traffic queues it.
		ej := eject[ff.dst]
		aExcl := ej.a - occ
		pa.add(md1Wait(aExcl, ser), ej.a, tailDecay(1, ej.a, ser), 1)

		if pa.rhoWorst > rhoMax {
			rhoMax = pa.rhoWorst
		}
		var sat bool
		lat[i], sat = pa.finalize(interval, cfg.PacketsPerNode)
		lat[i].injSpan = ff.injSpan
		saturated = saturated || sat
	}
	return assemble(lat, len(fl), interval, cfg, rhoMax, saturated), nil
}
