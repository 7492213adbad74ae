package check

import (
	"fmt"

	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// SpanAudit enforces the lifecycle tracer's attribution invariant: every
// traced packet's pre-delivery spans must tile its [inject, deliver)
// interval exactly, so their durations sum to the end-to-end latency the
// Stats/Collector layer records for it. Deliveries are witnessed through
// the same OnDeliver callback the Collector uses — netsim.AttachSpanAudit
// wires it — into one buffer per destination shard, indexed by the shard
// the callback is passed, so recording is race-free in sharded runs; Verify
// then checks the assembled chains against the witnessed (created,
// delivered) pairs at the end of the run.
type SpanAudit struct {
	shards [][]spanObs
}

// spanObs is one witnessed traced delivery: the exact values the stats layer
// derives latency from.
type spanObs struct {
	pkt       uint64
	created   sim.Time
	delivered sim.Time
}

// NewSpanAudit builds a SpanAudit for a K-shard run. Use
// netsim.AttachSpanAudit to subscribe it to a network's deliveries.
func NewSpanAudit(shards int) *SpanAudit {
	if shards < 1 {
		shards = 1
	}
	return &SpanAudit{shards: make([][]spanObs, shards)}
}

// Observe records one traced delivery. It must be called from a delivery
// callback, with the shard index OnDeliver passed it (the packet's
// destination shard); each shard appends only to its own buffer.
func (a *SpanAudit) Observe(shard int, pkt uint64, created, delivered sim.Time) {
	a.shards[shard] = append(a.shards[shard], spanObs{pkt: pkt, created: created, delivered: delivered})
}

// Witnessed returns how many traced deliveries the audit observed. Tests
// assert it is non-zero so a run with sampling misconfigured cannot pass
// vacuously.
func (a *SpanAudit) Witnessed() int {
	n := 0
	for _, sh := range a.shards {
		n += len(sh)
	}
	return n
}

// Verify checks every witnessed traced delivery against the flight-recorder
// records (pass FlightRecorder.Records(), merged at end of run) and returns
// the violations. When the rings overflowed, packets with incomplete chains
// are skipped instead of flagged — their records may have been legitimately
// overwritten; the trace_dropped_records counter and the exporters' WARN
// line make that loss visible. A packet whose chain is present but does not
// tile its latency exactly is always a violation. Call only after the run
// has drained (at a barrier).
func (a *SpanAudit) Verify(recs []telemetry.Record, overflowed bool) []Violation {
	chains := telemetry.AssembleChains(recs)
	byPkt := make(map[uint64]*telemetry.Chain, len(chains))
	for i := range chains {
		byPkt[chains[i].Pkt] = &chains[i]
	}
	var out []Violation
	violate := func(at sim.Time, format string, args ...any) {
		out = append(out, Violation{
			At: at, Shard: -1, Rule: "trace-span-attribution",
			Detail: fmt.Sprintf(format, args...),
		})
	}
	// Shards fold in index order, and observations within a shard are in
	// that shard's delivery order — deterministic for any K at a barrier.
	for _, sh := range a.shards {
		for _, obs := range sh {
			c := byPkt[obs.pkt]
			if c == nil || !c.Complete() {
				if overflowed {
					continue // lost to ring wrap-around, not to a tracer bug
				}
				violate(obs.delivered, "pkt %d: traced delivery has no complete span chain", obs.pkt)
				continue
			}
			if c.Injected != obs.created || c.DeliverAt != obs.delivered {
				violate(obs.delivered,
					"pkt %d: trace window [%d,%d) disagrees with stats window [%d,%d)",
					obs.pkt, int64(c.Injected), int64(c.DeliverAt),
					int64(obs.created), int64(obs.delivered))
				continue
			}
			if msg := c.CheckTiling(); msg != "" {
				violate(obs.delivered, "pkt %d: %s", obs.pkt, msg)
				continue
			}
			if got, want := c.SpanSum(), obs.delivered.Sub(obs.created); got != want {
				violate(obs.delivered, "pkt %d: span durations sum to %d, stats latency is %d",
					obs.pkt, int64(got), int64(want))
			}
		}
	}
	return out
}

// VerifyInto runs Verify and records any violations on aud, so trace drift
// fails the run through the standard audit error path.
func (a *SpanAudit) VerifyInto(aud *Auditor, recs []telemetry.Record, overflowed bool) {
	for _, v := range a.Verify(recs, overflowed) {
		aud.Violatef(v.At, v.Shard, v.Rule, "%s", v.Detail)
	}
}
