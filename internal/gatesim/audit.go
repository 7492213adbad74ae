package gatesim

import (
	"baldur/internal/check"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// gateAudit censuses the pooled transition events. Nil (the default)
// disables auditing at the cost of one nil check per acquire/release.
type gateAudit struct {
	lvl check.Pool
}

// AttachAudit arms the pool-leak auditor. Every checkpoint asserts the live
// transition-event balance is non-negative and bounded by the engine's
// queued events, and that it reaches exactly zero when the circuit settles:
// a drift in either direction means a leaked or double-freed levelEvent.
// Call before the run starts and before PlaySignal (played edges are pooled
// transition events too), at most once per circuit.
func (c *Circuit) AttachAudit(a *check.Auditor) {
	c.aud = &gateAudit{}
	a.OnCheckpoint(func(at sim.Time, drained bool) {
		live := c.aud.lvl.Live()
		pending := c.eng.Pending()
		if live < 0 {
			a.Violatef(at, 0, "gate/pools",
				"negative live transition-event balance %d (double free)", live)
		}
		if live > int64(pending) {
			a.Violatef(at, 0, "gate/pools",
				"%d live transition events but only %d events queued (leak)", live, pending)
		}
		if drained && live != 0 {
			a.Violatef(at, 0, "gate/pools",
				"settled with live transition-event balance %d", live)
		}
	})
}

// RunAudited drives the circuit like RunSampled and additionally runs an
// audit checkpoint at every slice boundary plus a final one at the deadline.
// With a nil aud it is exactly RunSampled. When both layers are attached the
// telemetry interval drives the slicing.
func (c *Circuit) RunAudited(until Fs, tel *telemetry.Telemetry, aud *check.Auditor) {
	if aud == nil {
		c.RunSampled(until, tel)
		return
	}
	iv := aud.Interval()
	if tel != nil {
		iv = tel.Interval()
	}
	end := sim.Time(until)
	for t := c.eng.Now().Add(iv); t < end; t = t.Add(iv) {
		more := c.eng.RunUntil(t)
		if tel != nil {
			tel.Sample(t, c.eng.Executed, 0)
		}
		aud.Checkpoint(t, !more)
		if !more {
			return
		}
	}
	more := c.eng.RunUntil(end)
	if tel != nil {
		tel.Sample(end, c.eng.Executed, 0)
	}
	aud.Checkpoint(end, !more)
}
