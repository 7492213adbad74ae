package core

import "baldur/internal/telemetry"

// AttachTelemetry registers Baldur's metrics and resolves per-shard probes
// (netsim.Instrumented). The packet counters are the shards' own ledgers,
// read at sample barriers, so the sampled series sums to the end-of-run
// aggregates; gauges are refreshed from live NIC/fabric state at each sample
// barrier. Call before the run starts, at most once.
func (n *Network) AttachTelemetry(tel *telemetry.Telemetry) {
	n.BindTelemetry(tel, "injected", "delivered", "duplicates",
		"data_attempts", "data_drops", "ack_attempts", "ack_drops", "retransmissions")
	reg := tel.Reg
	// Gauge refresh runs at sample barriers only — shard goroutines are
	// parked, so walking every NIC and the fabric's wire table is safe.
	// Values land in shard 0's slots (gauges are instants, not sums).
	nicQueued := reg.Count(reg.Gauge("nic_queued"), 0)
	inFlight := reg.Count(reg.Gauge("in_flight"), 0)
	retxBytes := reg.Count(reg.Gauge("retx_bytes"), 0)
	wiresBusy := reg.Count(reg.Gauge("wires_busy"), 0)
	wiresTotal := reg.Count(reg.Gauge("wires_total"), 0)
	tel.OnProbe(func() {
		var queued, flight, retx uint64
		for i := range n.nics {
			c := &n.nics[i]
			queued += uint64(c.queueLen())
			flight += uint64(c.outstanding.Len())
			retx += uint64(c.retxBytes)
		}
		nicQueued.Set(queued)
		inFlight.Set(flight)
		retxBytes.Set(retx)
		wiresBusy.Set(n.busyWires(n.Engine().Now()))
		wiresTotal.Set(uint64(len(n.busy)))
	})
}
