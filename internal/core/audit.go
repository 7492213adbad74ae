package core

import (
	"baldur/internal/check"
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// coreAudit is one shard's audit-only counters. A nil pointer (the default)
// disables auditing; every hot-path hook is guarded by that single nil
// check, exactly like the telemetry probe, so an unaudited run pays one
// predictable branch per site and allocates nothing. The struct fills one
// 64-byte cache line, so neighbouring shards' counters never share one.
type coreAudit struct {
	// ev censuses the pooled event lifecycle. Events migrate between
	// shards (acquired on the scheduling shard, freed on the executing
	// one), so only the cross-shard sums balance.
	ev check.Pool
	// overtaken counts queued (re)transmissions discarded because their
	// ACK arrived first: they consume a queue entry without a wire
	// attempt, so the attempt ledger must credit them.
	overtaken uint64
	// unmatchedAcks counts ACKs arriving after the sender already cleared
	// the sequence (the redundant ACK of a duplicate delivery).
	unmatchedAcks uint64
	// held counts packets waiting at this shard's NICs outside the
	// outstanding set: ACKs, data packets with the protocol off, and data
	// packets whose ACK arrived while they were held.
	held int64
	// poisoned counts transmissions, traversals and receives that met a
	// packet stamped netsim.ReleasedID, and receives of a packet addressed
	// to another node: a packet used after its release or its reuse.
	poisoned uint64
	_        [16]byte
}

// checkLive counts p as poisoned if it carries the released stamp.
func (a *coreAudit) checkLive(p *netsim.Packet) {
	if p.ID == netsim.ReleasedID {
		a.poisoned++
	}
}

// AttachAudit arms the conservation auditor (netsim.Audited). Call before
// the run starts, at most once per network instance: the overtaken/unmatched
// tallies only cover events after arming, and the ledgers assume complete
// coverage.
//
// The checkpoint walk asserts, at every barrier (shard goroutines parked):
//
//   - core/retx-bytes — per NIC, retxBytes equals the byte sum of its
//     outstanding (unACKed) packets: the requeue/forget paths neither
//     double-count nor leak retransmission-buffer accounting.
//   - core/conservation — with the reliability protocol on, every injected
//     packet is exactly one of ACK-completed or outstanding:
//     injected == completed + outstanding. This is the paper's ledger
//     "injected = delivered + dropped + outstanding + in-flight" folded
//     through the protocol: drops and in-flight copies are retransmission
//     attempts of packets still held in the outstanding set.
//   - core/dedup — unique deliveries equal the receive-side tracker state
//     (sum of next + spilled extras), completed <= delivered <= injected.
//   - core/attempts — the wire ledgers. Mid-run as inequalities (copies can
//     be in flight), at drain exactly:
//     data attempts == drops + delivered + duplicates,
//     injected + retransmissions == attempts + ACK-overtaken discards,
//     ack attempts == ack drops + matched + unmatched.
//   - core/pools — pooled events balance: the live count is non-negative
//     summed across shards, bounded by the engines' queued events, and
//     exactly zero once the run drains.
//   - core/packets — the packet census. Packets never leave the shard
//     whose pool made them, so per shard: the packets its pool made, less
//     those on its free stack, are exactly its NICs' outstanding packets,
//     plus the packets held at them outside the outstanding set, plus its
//     quarantine. The held tally is bounded by the queue walk: at least the
//     queued packets outside the outstanding set, at most those plus one
//     pending transmission per sending NIC. At drain nothing is outstanding
//     or held.
//   - core/walks — the fabric's batch of pending traversals is empty: the
//     fabric walks it at the end of every epoch, before the barrier.
//   - core/poison — no transmission, traversal or receive met a packet
//     that had left its pool's quarantine (the audit makes the pools stamp
//     them), and every receive met a packet addressed to its node: a copy
//     still in flight when its packet was reused would arrive rewritten.
//
// Violations carry the full ledger diff, the simulated time and the shard.
func (n *Network) AttachAudit(a *check.Auditor) {
	for _, sh := range n.shards {
		sh.aud = &coreAudit{}
		sh.pkts.Poison = true
	}
	n.census = make([]pktCensus, len(n.shards))
	a.OnCheckpoint(func(at sim.Time, drained bool) { n.audit(a, at, drained) })
}

// pktCensus is one shard's side of the core/packets census, from the NIC
// walk: its outstanding packets, its queued packets outside the outstanding
// set, and its NICs with the injection wire taken.
type pktCensus struct {
	outstanding, queuedHeld, sending int64
}

func (n *Network) audit(a *check.Auditor, at sim.Time, drained bool) {
	st := &n.Stats // folded: checkpoints follow a Run
	inj := st.Injected + a.SkewInjected
	retxOn := !n.cfg.DisableRetransmit

	// Walk live NIC state. Checkpoints run at barriers only, so reading
	// every shard's NICs from here is safe.
	var outstanding, queued, completed, tracked uint64
	maxRetxNow := 0
	census := n.census
	clear(census)
	for i := range n.nics {
		c := &n.nics[i]
		outstanding += uint64(c.outstanding.Len())
		queued += uint64(c.queueLen())
		completed += uint64(c.ackLat.N())
		cs := &census[c.sh.Sim.ID]
		cs.outstanding += int64(c.outstanding.Len())
		for _, q := range [][]*netsim.Packet{c.qfront, c.qback[c.qhead:]} {
			for _, p := range q {
				if p.Ack || p.Acked || !retxOn {
					cs.queuedHeld++
				}
			}
		}
		if c.sending {
			cs.sending++
		}
		want := 0
		c.outstanding.foreach(func(_ uint64, p *netsim.Packet) {
			want += p.Size
		})
		if c.retxBytes != want {
			a.Violatef(at, c.sh.Sim.ID, "core/retx-bytes",
				"nic %d: retxBytes=%d but outstanding sums to %d bytes over %d packets",
				c.id, c.retxBytes, want, c.outstanding.Len())
		}
		if c.retxBytes > maxRetxNow {
			maxRetxNow = c.retxBytes
		}
		c.seen.foreach(func(_ int, tr *seqTracker) {
			tracked += tr.next + uint64(len(tr.extras))
		})
	}
	if maxRetxNow > st.MaxRetxBufBytes {
		a.Violatef(at, -1, "core/retx-bytes",
			"live retx buffer %d B above recorded high-water mark %d B", maxRetxNow, st.MaxRetxBufBytes)
	}

	var overtaken, unmatched, poisoned uint64
	var evLive int64
	for i, sh := range n.shards {
		overtaken += sh.aud.overtaken
		unmatched += sh.aud.unmatchedAcks
		poisoned += sh.aud.poisoned
		evLive += sh.aud.ev.Live()
		cs := &census[i]
		held := sh.aud.held
		made, quarantined, free := sh.pkts.Census()
		if live := int64(made - free); live != cs.outstanding+held+int64(quarantined) {
			a.Violatef(at, i, "core/packets",
				"%d live packets (made %d, free %d) != outstanding %d + held %d + quarantined %d",
				live, made, free, cs.outstanding, held, quarantined)
		}
		if held < cs.queuedHeld || held > cs.queuedHeld+cs.sending {
			a.Violatef(at, i, "core/packets",
				"held tally %d outside the queue walk's [%d, %d]", held, cs.queuedHeld, cs.queuedHeld+cs.sending)
		}
	}
	if poisoned != 0 {
		a.Violatef(at, -1, "core/poison",
			"%d transmissions, traversals or receives of a released or reused packet", poisoned)
	}

	if retxOn {
		if inj != completed+outstanding+st.GaveUp {
			a.Violatef(at, -1, "core/conservation",
				"injected=%d != completed=%d + outstanding=%d + gaveUp=%d (delivered=%d queued=%d drops=%d retx=%d)",
				inj, completed, outstanding, st.GaveUp, st.Delivered, queued, st.DataDrops, st.Retransmissions)
		}
		if st.Delivered != tracked {
			a.Violatef(at, -1, "core/dedup",
				"delivered=%d but receive trackers account for %d unique sequences", st.Delivered, tracked)
		}
		if completed > st.Delivered {
			a.Violatef(at, -1, "core/dedup",
				"completed=%d > delivered=%d (an ACK matched an undelivered packet)", completed, st.Delivered)
		}
	} else {
		if st.Duplicates != 0 {
			a.Violatef(at, -1, "core/dedup",
				"duplicates=%d with the reliability protocol disabled", st.Duplicates)
		}
		if st.Retransmissions != 0 || outstanding != 0 {
			a.Violatef(at, -1, "core/conservation",
				"retransmissions=%d outstanding=%d with the reliability protocol disabled",
				st.Retransmissions, outstanding)
		}
	}
	if st.Delivered > inj {
		a.Violatef(at, -1, "core/conservation",
			"delivered=%d > injected=%d", st.Delivered, inj)
	}

	// Wire ledgers: inequalities while copies are in flight or queued,
	// exact once the run drains.
	if got, bound := st.DataDrops+st.Delivered+st.Duplicates, st.DataAttempts; got > bound {
		a.Violatef(at, -1, "core/attempts",
			"drops+delivered+duplicates=%d exceeds data attempts=%d", got, bound)
	}
	if got, bound := st.DataAttempts+overtaken, inj+st.Retransmissions; got > bound {
		a.Violatef(at, -1, "core/attempts",
			"attempts+overtaken=%d exceeds injected+retransmissions=%d", got, bound)
	}
	if got, bound := st.AckDrops+completed+unmatched, st.AckAttempts; got > bound {
		a.Violatef(at, -1, "core/attempts",
			"ack drops+matched+unmatched=%d exceeds ack attempts=%d", got, bound)
	}

	if len(n.walks) != 0 {
		a.Violatef(at, n.fab.Sim.ID, "core/walks",
			"%d traversals still waiting for the fabric walk at a barrier", len(n.walks))
	}

	pending := n.Queued()
	if evLive < 0 {
		a.Violatef(at, -1, "core/pools",
			"negative live pool balance: events=%d (double free)", evLive)
	}
	if evLive > int64(pending) {
		a.Violatef(at, -1, "core/pools",
			"%d live pooled events but only %d events queued (leak)", evLive, pending)
	}

	if drained {
		if queued != 0 || outstanding != 0 {
			a.Violatef(at, -1, "core/conservation",
				"drained with queued=%d outstanding=%d", queued, outstanding)
		}
		if retxOn {
			if completed+st.GaveUp != inj {
				a.Violatef(at, -1, "core/conservation",
					"drained with injected=%d != completed=%d + gaveUp=%d", inj, completed, st.GaveUp)
			}
			// Every abandoned packet forfeits its delivery guarantee; with
			// none abandoned the protocol still delivers everything.
			if st.GaveUp == 0 && st.Delivered != inj {
				a.Violatef(at, -1, "core/conservation",
					"drained with injected=%d completed=%d delivered=%d", inj, completed, st.Delivered)
			}
			if got, want := st.DataAttempts+overtaken, inj+st.Retransmissions; got != want {
				a.Violatef(at, -1, "core/attempts",
					"drained: attempts=%d + overtaken=%d != injected=%d + retransmissions=%d",
					st.DataAttempts, overtaken, inj, st.Retransmissions)
			}
			if got, want := st.AckDrops+completed+unmatched, st.AckAttempts; got != want {
				a.Violatef(at, -1, "core/attempts",
					"drained: ack drops=%d + matched=%d + unmatched=%d != ack attempts=%d",
					st.AckDrops, completed, unmatched, st.AckAttempts)
			}
		} else if got, want := st.Delivered+st.DataDrops, st.DataAttempts; got != want || st.DataAttempts != inj {
			a.Violatef(at, -1, "core/attempts",
				"drained: delivered=%d + drops=%d vs attempts=%d vs injected=%d",
				st.Delivered, st.DataDrops, st.DataAttempts, inj)
		}
		if got, want := st.DataDrops+st.Delivered+st.Duplicates, st.DataAttempts; got != want {
			a.Violatef(at, -1, "core/attempts",
				"drained: drops+delivered+duplicates=%d != data attempts=%d", got, want)
		}
		if evLive != 0 {
			a.Violatef(at, -1, "core/pools",
				"drained with live pool balance events=%d", evLive)
		}
		if pending != 0 {
			a.Violatef(at, -1, "core/pools",
				"drained flag set but %d events still queued", pending)
		}
	}
}
