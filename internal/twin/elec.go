package twin

import (
	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// evalMB is the analytical model of the buffered electrical multi-butterfly.
//
// The multi-butterfly's group structure makes fabric contention tractable:
// at stage s the switches partition into 2^s groups, and a flow's group
// sequence is fully determined by its destination bits (group 2G+d after
// taking direction d out of group G) — only the switch within the group
// depends on the adaptive wire choice, which spreads load evenly. So each
// (stage, group, direction) is one pooled queue with c = groupSize * m
// equivalent wires, M/D/c waiting discounted by the finite-source factor
// (F feeding flows, each serialized at its NIC, can never queue when
// F <= c — for the permutation patterns of Fig. 6 the fabric is
// effectively contention-free and the NIC injection queue dominates).
func evalMB(pat *traffic.Pattern, load float64, cfg Config) (Point, error) {
	in, err := elecnet.AnalyticalMB(elecnet.MBConfig{Nodes: cfg.Nodes, Multiplicity: 4, Seed: cfg.Seed})
	if err != nil {
		return Point{}, err
	}
	fl, interval := openFlows(pat, load, cfg)
	if len(fl) == 0 {
		return Point{}, nil
	}
	w := in.Wiring
	stages := w.Stages
	m := in.Cfg.Multiplicity
	ser := sim.SerializationTime(netsim.PacketSize, netsim.LineRate).Seconds()

	// Pooled (stage, group, direction) queues. Group of flow at stage 0 is
	// 0; direction d advances the group to 2G+d.
	sw2 := w.SwitchesPerStage() * 2
	poolA := make([][]float64, stages)
	poolF := make([][]int, stages)
	for s := range poolA {
		poolA[s] = make([]float64, sw2)
		poolF[s] = make([]int, sw2)
	}
	groups := make([][]int32, len(fl)) // group sequence per flow
	dirs := make([][]int, len(fl))
	for i, ff := range fl {
		gs := make([]int32, stages)
		ds := make([]int, stages)
		var g int32
		for s := 0; s < stages; s++ {
			d := w.RoutingBit(ff.dst, s)
			gs[s], ds[s] = g, d
			key := int(g)*2 + d
			poolA[s][key] += ff.rate * ser
			poolF[s][key]++
			g = g<<1 | int32(d)
		}
		groups[i], dirs[i] = gs, ds
	}

	base := (2*netsim.HostLinkDelay +
		sim.Duration(stages)*elecnet.RouterLatency +
		sim.Duration(stages-1)*elecnet.MBStageDelay).Seconds() + ser

	T := interval * float64(cfg.PacketsPerNode)
	lat := make([]flowLat, len(fl))
	rhoMax, saturated := 0.0, false
	for i, ff := range fl {
		pa := pathAcc{base: base, T: T}
		// NIC injection: M/D/1 at the flow's own offered load.
		nrho := ff.rate * ser
		pa.add(md1Wait(nrho, ser), nrho, tailDecay(1, nrho, ser), 1)
		for s := 0; s < stages; s++ {
			key := int(groups[i][s])*2 + dirs[i][s]
			a, F := poolA[s][key], poolF[s][key]
			c := m * (w.SwitchesPerStage() >> uint(s)) // wires in the pool
			rho := a / float64(c)
			pa.add(mdcWait(c, a, ser)*fsFactor(F, c), rho, tailDecay(c, rho, ser), 1)
		}
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

// evalIdeal models the reference network exactly: every packet takes the
// flat latency, no queueing anywhere.
func evalIdeal(pat *traffic.Pattern, load float64, cfg Config) (Point, error) {
	fl, interval := openFlows(pat, load, cfg)
	if len(fl) == 0 {
		return Point{}, nil
	}
	base := elecnet.IdealLatency.Seconds()
	lat := make([]flowLat, len(fl))
	for i := range lat {
		lat[i] = flowLat{base: base, injSpan: fl[i].injSpan}
	}
	return assemble(lat, len(fl), interval, cfg, 0, false), nil
}
