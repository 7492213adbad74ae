package twin

import (
	"math"

	"baldur/internal/core"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// evalBaldur is the analytical Baldur model. Structure:
//
//   - Every flow contributes two fabric streams ("units"): its data packets
//     and the reverse ACK stream, each pinned to the deterministic wire-0
//     path through the seed-exact multi-butterfly wiring (first-free wire
//     selection rides wire 0 except under collision, so realized paths
//     concentrate there).
//   - Each (stage, switch, direction) wire group is a finite-source loss
//     system with one source per distinct UPSTREAM WIRE feeding it (not per
//     flow): packets sharing an input wire are serialized by that wire and
//     can never collide with each other, so a pool fed through S <= m*W
//     distinct wires cannot drop no matter how many flows ride them. This
//     is what makes e.g. the transpose pattern drop-free in the packet
//     engine, and the model reproduces it structurally (Engset call
//     congestion over S wire-sources, zero for S <= c).
//   - Losses inflate offered load through the retransmission-expectation
//     fixed point gamma = 1/((1-pData)(1-pAck)), iterated (damped) with the
//     per-group losses until convergence.
//   - Delivery latency is the zero-load path plus the NIC injection wait: an
//     M/G/1 queue with two non-preemptive priority classes (ACKs and
//     retransmissions are prepended to the head of the transmit queue; first
//     attempts wait behind them), plus geometric retransmission-round atoms
//     (RTO + mean binary-exponential backoff per failed attempt).
func evalBaldur(pat *traffic.Pattern, load float64, cfg Config) (Point, error) {
	in, err := core.Analytical(core.Config{Nodes: cfg.Nodes, Seed: cfg.Seed})
	if err != nil {
		return Point{}, err
	}
	fl, interval := openFlows(pat, load, cfg)
	if len(fl) == 0 {
		return Point{}, nil
	}
	T := interval * float64(cfg.PacketsPerNode)
	mb := in.MB
	stages := mb.Stages
	c := in.Cfg.Multiplicity
	dataOcc := (in.DataDur + in.Gap).Seconds()
	ackOcc := (in.AckDur + in.Gap).Seconds()

	// Fabric streams with wire-0 switch placement.
	type unit struct {
		flow     int
		occ      float64
		sw       []int32
		dir      []int
		attempts float64
		pPath    float64
	}
	units := make([]unit, 0, 2*len(fl))
	mkUnit := func(f, src, dst int, occ float64) unit {
		u := unit{flow: f, occ: occ, sw: make([]int32, stages), dir: make([]int, stages)}
		sw, _ := mb.InjectionSwitch(src)
		for s := 0; s < stages; s++ {
			d := mb.RoutingBit(dst, s)
			u.sw[s], u.dir[s] = sw, d
			if s < stages-1 {
				sw = mb.OutWire(s, sw, d, 0).Switch
			}
		}
		return u
	}
	for i, f := range fl {
		units = append(units, mkUnit(i, f.src, f.dst, dataOcc)) // data: index 2i
		units = append(units, mkUnit(i, f.dst, f.src, ackOcc))  // ack: index 2i+1
	}

	// Per-(stage, switch, direction) wire-group pools, plus per-(stage,
	// group, direction) background: under contention the first-free wire
	// hunt diverts packets off the wire-0 path, spreading their load over
	// the sorting group (all wires of a (switch, d) pool land in the same
	// next-stage group), so a unit's concentrated load is thinned by its
	// wire-0 persistence probability and the remainder spreads uniformly.
	spp := mb.SwitchesPerStage()
	sw2 := spp * 2
	poolA := make([][]float64, stages)   // wire-0 offered erlangs
	poolTot := make([][]float64, stages) // + background share (prev iter)
	poolS := make([][]int, stages)       // distinct feeding upstream wires
	pLoss := make([][]float64, stages)   // damped Engset call congestion
	bgA := make([][]float64, stages)     // diverted erlangs per (group, d)
	bgLoss := make([][]float64, stages)  // group-mean pool loss
	for s := range poolA {
		poolA[s] = make([]float64, sw2)
		poolTot[s] = make([]float64, sw2)
		poolS[s] = make([]int, sw2)
		pLoss[s] = make([]float64, sw2)
		groups := 1 << uint(s)
		bgA[s] = make([]float64, groups*2)
		bgLoss[s] = make([]float64, groups*2)
	}
	// Source counting: a unit's stage-s input wire is its source node's
	// transmit wire at stage 0 and the wire-0 output of its stage-(s-1)
	// pool afterwards; units sharing that wire are serialized on it and
	// count as one Engset source.
	{
		seen := make([]map[int64]struct{}, stages)
		for s := range seen {
			seen[s] = make(map[int64]struct{}, len(units))
		}
		for ui := range units {
			u := &units[ui]
			// Stage-0 wires are unique per source node (negative ids,
			// disjoint from the pool-key ids of later stages).
			f := fl[u.flow]
			src := f.src
			if ui&1 == 1 {
				src = f.dst
			}
			up := int64(-(src + 1))
			for s := 0; s < stages; s++ {
				key := int(u.sw[s])*2 + u.dir[s]
				wireKey := (int64(key) << 32) | (up & 0xffffffff)
				if _, ok := seen[s][wireKey]; !ok {
					seen[s][wireKey] = struct{}{}
					poolS[s][key]++
				}
				up = int64(key) + 1 // next stage's input wire identity
			}
		}
	}

	gamma := make([]float64, len(fl))
	pD := make([]float64, len(fl))
	pA := make([]float64, len(fl))
	for i := range gamma {
		gamma[i] = 1
	}
	const gammaCap = 64.0
	for iter := 0; iter < 200; iter++ {
		for ui := range units {
			u := &units[ui]
			f := u.flow
			if ui&1 == 1 { // ACK stream: one ACK per arriving data attempt
				u.attempts = fl[f].rate * gamma[f] * (1 - pD[f])
			} else {
				u.attempts = fl[f].rate * gamma[f]
			}
		}
		for s := 0; s < stages; s++ {
			clear(poolA[s])
			clear(bgA[s])
		}
		for ui := range units {
			u := &units[ui]
			surv, w0 := 1.0, 1.0
			for s := 0; s < stages; s++ {
				key := int(u.sw[s])*2 + u.dir[s]
				q := spp >> uint(s) // group size at this stage
				gd := int(u.sw[s])/q*2 + u.dir[s]
				load := u.attempts * surv * u.occ
				poolA[s][key] += load * w0
				bgA[s][gd] += load * (1 - w0)
				surv *= 1 - (w0*pLoss[s][key] + (1-w0)*bgLoss[s][gd])
				// Wire-0 persistence: the packet stays on the wire-0
				// path iff wire 0 is free on arrival; the first wire of
				// an ordered hunt over a erlangs (excluding own load)
				// carries a/(1+a).
				aEx := poolTot[s][key] - load*w0
				if aEx < 0 {
					aEx = 0
				}
				w0 *= 1 / (1 + aEx)
			}
		}
		maxD := 0.0
		for s := 0; s < stages; s++ {
			q := spp >> uint(s)
			for key, S := range poolS[s] {
				if S == 0 {
					continue
				}
				gd := key/(2*q)*2 + key&1
				tot := poolA[s][key] + bgA[s][gd]/float64(q)
				poolTot[s][key] = tot
				y := tot / float64(S)
				if y > 1 {
					y = 1
				}
				pNew := engsetLoss(S, c, y)
				d := pNew - pLoss[s][key]
				pLoss[s][key] += 0.5 * d
				if a := math.Abs(d); a > maxD {
					maxD = a
				}
			}
			// Group-mean loss, weighted by wire-0 offered load, applies
			// to the diverted (spread) traffic.
			for gd := range bgLoss[s] {
				g, d := gd/2, gd&1
				var num, den float64
				for k := g * q; k < (g+1)*q; k++ {
					key := k*2 + d
					num += pLoss[s][key] * (poolTot[s][key] + 1e-18)
					den += poolTot[s][key] + 1e-18
				}
				bgLoss[s][gd] = num / den
			}
		}
		for ui := range units {
			u := &units[ui]
			path, w0 := 1.0, 1.0
			for s := 0; s < stages; s++ {
				key := int(u.sw[s])*2 + u.dir[s]
				q := spp >> uint(s)
				gd := int(u.sw[s])/q*2 + u.dir[s]
				path *= 1 - (w0*pLoss[s][key] + (1-w0)*bgLoss[s][gd])
				aEx := poolTot[s][key]
				if aEx < 0 {
					aEx = 0
				}
				w0 *= 1 / (1 + aEx)
			}
			u.pPath = 1 - path
		}
		for f := range fl {
			pD[f] = units[2*f].pPath
			pA[f] = units[2*f+1].pPath
			g := 1 / ((1 - pD[f]) * (1 - pA[f]))
			if !(g < gammaCap) { // also catches NaN/Inf
				g = gammaCap
			}
			d := g - gamma[f]
			gamma[f] += 0.5 * d
			if a := math.Abs(d) / gamma[f]; a > maxD {
				maxD = a
			}
		}
		if maxD < 1e-12 && iter >= 2 {
			break
		}
	}

	// NIC transmit queues: M/G/1 with non-preemptive priority. High class:
	// ACK emissions and retransmissions (prepended to the queue head); low
	// class: first data attempts.
	type nicQ struct {
		rhoH, rhoL, r float64 // utilizations and mean residual work
	}
	nics := make([]nicQ, cfg.Nodes)
	for f, ff := range fl {
		q := &nics[ff.src]
		q.rhoL += ff.rate * dataOcc
		retx := ff.rate * (gamma[f] - 1)
		q.rhoH += retx * dataOcc
		q.r += (ff.rate + retx) * dataOcc * dataOcc / 2
		// ACKs are emitted by the destination, one per arriving attempt.
		qd := &nics[ff.dst]
		ackRate := ff.rate * gamma[f] * (1 - pD[f])
		qd.rhoH += ackRate * ackOcc
		qd.r += ackRate * ackOcc * ackOcc / 2
	}

	base := (2*netsim.HostLinkDelay + sim.Duration(stages)*in.PerStage + in.DataDur).Seconds()
	bebMean := func(j int) float64 {
		if in.Cfg.DisableBEB {
			return 0
		}
		e := j
		if e > in.Cfg.MaxBackoffExp {
			e = in.Cfg.MaxBackoffExp
		}
		window := float64(uint64(1) << uint(e))
		return in.Cfg.BEBSlot.Seconds() * (window - 1) / 2
	}
	rto := in.RTO.Seconds()

	lat := make([]flowLat, len(fl))
	rhoMax := 0.0
	saturated := false
	var dropNum, dropDen, gammaSum float64
	for f, ff := range fl {
		q := nics[ff.src]
		rho := q.rhoH + q.rhoL
		if rho > rhoMax {
			rhoMax = rho
		}
		wSteady := q.r / ((1 - math.Min(q.rhoH, rhoCap)) * (1 - math.Min(rho, rhoCap)))
		wLow := finiteWait(wSteady, rho, T)
		tw := transientWait(rho, interval, cfg.PacketsPerNode)
		w := wLow + tw
		// The tail decay tempers by the same finite-run ratio as the mean
		// (see pathAcc.add).
		theta := tailDecay(1, rho, dataOcc)
		if wSteady > 0 {
			theta *= wLow / wSteady
		}
		var pb float64
		if tw > 0 {
			theta, pb = math.Max(theta, tw/2), 1
			saturated = true
		} else {
			pb = math.Min(1, w/math.Max(theta, 1e-18))
		}
		// Retransmission-round atoms: the k-th attempt succeeds with
		// geometric probability in the per-attempt path loss.
		var atoms []atom
		if pD[f] > 1e-9 {
			const kMax = 40
			qd := pD[f]
			norm := 1 - math.Pow(qd, kMax)
			extra, mass := 0.0, (1-qd)/norm
			for k := 1; k <= kMax; k++ {
				atoms = append(atoms, atom{mass: mass, extra: extra})
				extra += rto + bebMean(k)
				mass *= qd
			}
		}
		lat[f] = flowLat{base: base, w: w, theta: theta, pb: pb, atoms: atoms,
			injSpan: ff.injSpan, endW: tw}
		attempts := ff.rate * gamma[f]
		dropNum += attempts * pD[f]
		dropDen += attempts
		gammaSum += gamma[f]
		if gamma[f] >= gammaCap*0.999 {
			saturated = true
		}
	}

	p := assemble(lat, len(fl), interval, cfg, rhoMax, saturated)
	if dropDen > 0 {
		p.DropRate = dropNum / dropDen
	}
	p.RetxAmp = gammaSum / float64(len(fl))
	return p, nil
}
