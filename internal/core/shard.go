package core

import (
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/stats"
)

// coreShard is one partition of the Baldur model: the optical fabric (shard
// 0 when sharded), a contiguous block of NICs, or with Shards <= 1 the whole
// network. It embeds the runtime's netsim.Shard (engine shard, ledger,
// telemetry probe) and adds Baldur's own per-shard diagnostics and the free
// lists its goroutine touches — nothing here is shared between shards during
// an epoch. The diagnostics reach Network.Stats only through Run's fold.
type coreShard struct {
	netsim.Shard
	dropsByStage []uint64
	maxRetx      int
	evFree       *coreEvent
	// pkts recycles the packets this shard's NICs create: their data
	// packets and their ACKs (see nic.release).
	pkts netsim.PacketPool
	// aud is the shard's audit counters; nil disables auditing, like the
	// probe.
	aud *coreAudit
}

// Partitioning: shard 0 is the optical fabric — a traversal resolves its
// whole path against the global occupancy table, so the fabric is a single
// sequential actor — and shards 1..K-1 hold contiguous blocks of NICs. The
// lookahead is the host link delay (Table VI, 100 ns): every NIC<->fabric
// interaction crosses one host fiber, and NICs never talk to each other
// directly. The fabric batches its traversals into stage-interleaved walks
// (Network.walk) and walks what is left of the batch at the end of every
// epoch, from its engine shard's EpochEnd hook: the receive handoffs are
// all a host link past their traversals, so at or after the epoch's end.

// NodeShard returns the shard owning a node's NIC.
func (n *Network) NodeShard(node int) int { return n.nics[node].sh.Sim.ID }

// ScheduleNode schedules ev on node's shard with the node's deterministic
// tie-break key. Call it before the run starts or from an event already
// executing on that node's shard.
func (n *Network) ScheduleNode(node int, t sim.Time, ev sim.Event) {
	c := &n.nics[node]
	c.eng.ScheduleKey(t, c.act.Next(), ev)
}

// foldDiag is the runtime's fold hook: after the ledgers fold it folds
// Baldur's per-shard diagnostics into n.Stats. The merge runs in fixed
// shard order, so the result is invariant to the shard count. It runs at a
// full barrier, so it also hands the shards the pooled events the fabric
// owes them (see coreEvent).
func (n *Network) foldDiag() {
	clear(n.Stats.DropsByStage)
	n.Stats.MaxRetxBufBytes = 0
	for _, sh := range n.shards {
		for j, v := range sh.dropsByStage {
			n.Stats.DropsByStage[j] += v
		}
		n.Stats.MaxRetxBufBytes = max(n.Stats.MaxRetxBufBytes, sh.maxRetx)
	}
	fab := n.fab
	for i, owed := range n.evOwed {
		sh := n.shards[i]
		for ; owed > 0 && fab.evFree != nil; owed-- {
			ev := fab.evFree
			fab.evFree, ev.next, sh.evFree = ev.next, sh.evFree, ev
		}
		n.evOwed[i] = owed
	}
}

// AckLatency returns the ACK round-trip times (ns) observed so far, for
// diagnostics. The moments are accumulated per NIC and merged here, on
// demand, in node order: each NIC's sequence of observations is invariant
// to sharding, and so therefore is this merge. Call it between runs.
func (n *Network) AckLatency() stats.Running {
	var ack stats.Running
	for i := range n.nics {
		ack.Merge(&n.nics[i].ackLat)
	}
	return ack
}
