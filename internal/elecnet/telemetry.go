package elecnet

import "baldur/internal/telemetry"

// AttachTelemetry registers the electrical networks' metrics and resolves
// per-shard probes (netsim.Instrumented). It instruments the shared router
// engine, so the multi-butterfly, dragonfly and fat-tree all report the
// same schema; the packet counters are the shards' own ledgers. Call before
// the run starts, at most once.
func (n *engine) AttachTelemetry(tel *telemetry.Telemetry) {
	n.BindTelemetry(tel, "injected", "delivered", "dropped")
	reg := tel.Reg
	// Gauge refresh runs at sample barriers only — shard goroutines are
	// parked, so walking every NIC and router is safe. Values land in shard
	// 0's slots (gauges are instants, not sums).
	gSrc := reg.Count(reg.Gauge("src_queued"), 0)
	gNet := reg.Count(reg.Gauge("net_queued"), 0)
	gFlight := reg.Count(reg.Gauge("in_flight"), 0)
	gBusy := reg.Count(reg.Gauge("ports_busy"), 0)
	gTotal := reg.Count(reg.Gauge("ports_total"), 0)
	tel.OnProbe(func() {
		var src, queued uint64
		for ni := range n.nics {
			src += uint64(n.nics[ni].queue.len())
		}
		now := n.Engine().Now()
		var busy, total uint64
		for ri := range n.routers {
			r := &n.routers[ri]
			for pi := range r.out {
				port := &r.out[pi]
				queued += uint64(port.queued)
				total++
				if port.busyUntil > now {
					busy++
				}
			}
		}
		gSrc.Set(src)
		gNet.Set(queued)
		// In flight = injected but neither delivered nor faulted away;
		// samples follow a Run, so NetStats is folded.
		gFlight.Set(n.Injected - n.Delivered - n.Dropped)
		gBusy.Set(busy)
		gTotal.Set(total)
	})
}
