package elecnet

import (
	"baldur/internal/check"
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// elecAudit is one shard's audit-only pool censuses. A nil pointer (the
// default) disables auditing; every hook is guarded by that single nil
// check, mirroring the telemetry probe. Padded so neighbouring shards'
// counters never share a cache line.
type elecAudit struct {
	// state/credit census the pooled pktState and creditEvent lifecycles.
	// Pooled objects migrate between shards (acquired on the scheduling
	// shard, freed on the executing one), so only cross-shard sums balance.
	state  check.Pool
	credit check.Pool
	// poisoned counts arrivals and deliveries of a packet stamped
	// netsim.ReleasedID: a packet used after its release.
	poisoned uint64
	_        [24]byte
}

// checkLive counts p as poisoned if it carries the released stamp.
func (a *elecAudit) checkLive(p *netsim.Packet) {
	if p.ID == netsim.ReleasedID {
		a.poisoned++
	}
}

// AttachAudit arms the conservation auditor (netsim.Audited). Call before
// the run starts, at most once per network instance.
//
// The checkpoint walk asserts, at every barrier (shard goroutines parked):
//
//   - elec/conservation — the network is lossless: delivered <= injected,
//     and exactly injected - delivered packet states are live (every
//     undelivered packet holds one pooled state, whether queued at its
//     source NIC, buffered at a router or in flight on a link). At drain
//     both sides are equal and the live count is zero.
//   - elec/queues — every output port's cached depth equals the sum of its
//     per-VC queue lengths, and all queued states are live.
//   - elec/credits — per-VC credit counts stay within [0, slotsPerVC] at
//     every port and NIC (credit-based flow control can neither overdraw
//     nor overfill a buffer), and at drain every credit vector is restocked
//     to capacity.
//   - elec/pools — pooled states and credit events balance across shards
//     and are exactly zero once the run drains, with no events left queued.
//   - elec/packets — every packet in use has exactly one live state: a
//     packet is taken with its state at Send and put back on the shard
//     where both die, so the packets the pools made, less those they hold,
//     summed across shards, equal the live states.
//   - elec/poison — no router arrival or delivery met a packet that had
//     left its pool's quarantine (the audit makes the pools stamp them).
func (n *engine) AttachAudit(a *check.Auditor) {
	for _, sh := range n.shards {
		sh.aud = &elecAudit{}
		sh.pkts.Poison = true
	}
	a.OnCheckpoint(func(at sim.Time, drained bool) { n.audit(a, at, drained) })
}

// audit runs at checkpoints, which follow a Run, so NetStats is folded.
func (n *engine) audit(a *check.Auditor, at sim.Time, drained bool) {
	per := int32(n.slotsPerVC())

	var stateLive, credLive, pktLive int64
	var poisoned uint64
	for _, sh := range n.shards {
		stateLive += sh.aud.state.Live()
		credLive += sh.aud.credit.Live()
		made, quarantined, free := sh.pkts.Census()
		pktLive += int64(made - quarantined - free)
		poisoned += sh.aud.poisoned
	}
	if pktLive != stateLive {
		a.Violatef(at, -1, "elec/packets",
			"%s: %d live packets but %d live packet states", n.name, pktLive, stateLive)
	}
	if poisoned != 0 {
		a.Violatef(at, -1, "elec/poison",
			"%s: %d arrivals or deliveries of a released packet", n.name, poisoned)
	}

	inj := n.Injected + a.SkewInjected
	if n.Delivered+n.Dropped > inj {
		a.Violatef(at, -1, "elec/conservation",
			"%s: delivered=%d + dropped=%d > injected=%d", n.name, n.Delivered, n.Dropped, inj)
	}
	if inFlight := int64(inj) - int64(n.Delivered) - int64(n.Dropped); stateLive != inFlight {
		a.Violatef(at, -1, "elec/conservation",
			"%s: %d live packet states but injected=%d - delivered=%d - dropped=%d = %d in flight",
			n.name, stateLive, inj, n.Delivered, n.Dropped, inFlight)
	}

	var queuedStates int64
	for ri := range n.routers {
		r := &n.routers[ri]
		for pi := range r.out {
			port := &r.out[pi]
			q := 0
			for vi := range port.queues {
				q += port.queues[vi].len()
			}
			if q != int(port.queued) {
				a.Violatef(at, r.sh.Sim.ID, "elec/queues",
					"%s: router %d port %d caches queued=%d but VC queues hold %d",
					n.name, r.id, pi, port.queued, q)
			}
			queuedStates += int64(q)
			if port.cred < 0 {
				continue // ejection port: no downstream buffer
			}
			for vc, cr := range n.creditVec(port.cred) {
				if cr < 0 || cr > per {
					a.Violatef(at, r.sh.Sim.ID, "elec/credits",
						"%s: router %d port %d vc %d holds %d credits (capacity %d)",
						n.name, r.id, pi, vc, cr, per)
				} else if drained && cr != per {
					a.Violatef(at, r.sh.Sim.ID, "elec/credits",
						"%s: drained with router %d port %d vc %d at %d/%d credits",
						n.name, r.id, pi, vc, cr, per)
				}
			}
		}
	}
	for ni := range n.nics {
		nic := &n.nics[ni]
		queuedStates += int64(nic.queue.len())
		for vc, cr := range n.creditVec(nic.cred) {
			if cr < 0 || cr > per {
				a.Violatef(at, nic.sh.Sim.ID, "elec/credits",
					"%s: nic %d vc %d holds %d credits (capacity %d)",
					n.name, nic.id, vc, cr, per)
			} else if drained && cr != per {
				a.Violatef(at, nic.sh.Sim.ID, "elec/credits",
					"%s: drained with nic %d vc %d at %d/%d credits",
					n.name, nic.id, vc, cr, per)
			}
		}
	}
	if queuedStates > stateLive {
		a.Violatef(at, -1, "elec/queues",
			"%s: %d states queued but only %d live", n.name, queuedStates, stateLive)
	}

	if stateLive < 0 || credLive < 0 {
		a.Violatef(at, -1, "elec/pools",
			"%s: negative live pool balance: states=%d credits=%d (double free)",
			n.name, stateLive, credLive)
	}
	pending := n.Queued()
	if credLive > int64(pending) {
		a.Violatef(at, -1, "elec/pools",
			"%s: %d live credit events but only %d events queued (leak)",
			n.name, credLive, pending)
	}

	if drained {
		if inj != n.Delivered+n.Dropped {
			a.Violatef(at, -1, "elec/conservation",
				"%s: drained with injected=%d delivered=%d dropped=%d", n.name, inj, n.Delivered, n.Dropped)
		}
		if queuedStates != 0 {
			a.Violatef(at, -1, "elec/queues",
				"%s: drained with %d states still queued", n.name, queuedStates)
		}
		if stateLive != 0 || credLive != 0 {
			a.Violatef(at, -1, "elec/pools",
				"%s: drained with live pool balance states=%d credits=%d",
				n.name, stateLive, credLive)
		}
		if pending != 0 {
			a.Violatef(at, -1, "elec/pools",
				"%s: drained flag set but %d events still queued", n.name, pending)
		}
	}
}
