package main

import (
	"time"

	"baldur/internal/sim"
)

// calibration is the event kernel's speed measured in the benchmark's own
// process through the public sim.Engine API, in reference nanoseconds (see
// refclock.go). Dividing a workload's ns/event by DispatchNS gives its cost
// in units of the kernel's own dispatch cost.
type calibration struct {
	DispatchNS    float64 `json:"dispatch_ns"`
	TieDispatchNS float64 `json:"tie_dispatch_ns"`
}

// spreadEvent keeps one of the dispatch loop's events in flight: each run
// reschedules it 1 to 1024 slots of 1,024 ps ahead, at its own offset
// within the slot, so the in-flight events never share a timestamp.
type spreadEvent struct {
	offset int64
	x      uint64
}

func (ev *spreadEvent) Run(e *sim.Engine) {
	ev.x = ev.x*6364136223846793005 + 1442695040888963407
	slot := int64(e.Now())>>10 + 1 + int64(ev.x>>54)
	e.Schedule(sim.Time(slot<<10+ev.offset), ev)
}

// tieEvent reschedules itself one nanosecond ahead, so every event of the
// loop shares each timestamp: each time step is one tie group.
type tieEvent struct{}

func (ev *tieEvent) Run(e *sim.Engine) { e.ScheduleAfter(sim.Nanosecond, ev) }

// calibrate times both kernel loops for about budget each.
func calibrate(budget time.Duration) calibration {
	spread := sim.NewEngine()
	for i := 0; i < 1000; i++ {
		ev := &spreadEvent{offset: int64(i), x: uint64(i)}
		ev.Run(spread)
	}
	ties := sim.NewEngine()
	for i := 0; i < 8192; i++ {
		ties.Schedule(0, &tieEvent{})
	}
	return calibration{
		// ~100K dispatches per window.
		DispatchNS: timeLoop(spread, 50*sim.Microsecond, budget),
		// One 8,192-event tie group per window after the first.
		TieDispatchNS: timeLoop(ties, sim.Nanosecond, budget),
	}
}

// timeLoop advances e by window per round until budget has elapsed (after
// one warm-up round), sampling the reference clock between rounds, and
// returns the median reference ns per dispatched event.
func timeLoop(e *sim.Engine, window sim.Duration, budget time.Duration) float64 {
	var perEvent []float64
	ref := newRefClock()
	end := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		if ref.due() {
			ref.sample()
		}
		before := e.Executed
		t0 := time.Now()
		e.RunUntil(e.Now().Add(window))
		ns := float64(time.Since(t0).Nanoseconds()) / float64(e.Executed-before)
		if round > 0 {
			perEvent = append(perEvent, ns)
		}
	}
	return median(perEvent) * ratio(refNominalNS, ref.nsPerOp())
}
