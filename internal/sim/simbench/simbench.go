// Package simbench holds the event-kernel benchmark loops. internal/sim's
// Benchmark functions and cmd/benchjson's engine entries time these same
// bodies, so a kernel number has one definition wherever it is measured.
//
// A Loop schedules the first events of a loop on a fresh engine; running
// the engine then dispatches exactly n events. Run times that dispatch.
package simbench

import (
	"testing"

	"baldur/internal/sim"
)

// Loop schedules on e the first events of a loop that dispatches n events
// in all once e runs.
type Loop func(e *sim.Engine, n int)

// Run times one dispatch of loop: it schedules b.N dispatches on a fresh
// engine, then times e.Run, and fails b if the loop dispatched any other
// count.
func Run(b *testing.B, loop Loop) {
	b.ReportAllocs()
	e := sim.NewEngine()
	loop(e, b.N)
	b.ResetTimer()
	e.Run()
	if e.Executed != uint64(b.N) {
		b.Fatalf("dispatched %d events, want %d", e.Executed, b.N)
	}
}

// typedEvent is a single event rescheduling itself, the steady-state
// pattern of the network models.
type typedEvent struct {
	rng *sim.RNG
	n   int
	max int
}

func (ev *typedEvent) Run(e *sim.Engine) {
	if ev.n < ev.max {
		ev.n++
		e.ScheduleAfter(sim.Duration(ev.rng.Intn(1000)+1), ev)
	}
}

// Typed is the plain dispatch loop: one typed event rescheduling itself a
// random 1-1000 ps ahead, with 1000 events in flight, a realistic queue
// depth.
func Typed(e *sim.Engine, n int) {
	rng := sim.NewRNG(1)
	ev := &typedEvent{rng: rng, max: n}
	for i := 0; i < 1000 && ev.n < n; i++ {
		ev.n++
		e.Schedule(sim.Time(rng.Intn(1000)), ev)
	}
}

// fifoEvent keeps width events at one timestamp: each dispatch reschedules
// 1 ns ahead while enough dispatches remain, so every time step is one tie
// group.
type fifoEvent struct{ left, width int }

func (ev *fifoEvent) Run(e *sim.Engine) {
	ev.left--
	if ev.left >= ev.width {
		e.ScheduleAfter(sim.Nanosecond, ev)
	}
}

// TieFIFO is the loop of width-wide tie groups with Schedule's FIFO keys,
// which the heap hands back reversed. The width is capped at n.
func TieFIFO(width int) Loop {
	return func(e *sim.Engine, n int) {
		ev := &fifoEvent{left: n, width: min(width, n)}
		for i := 0; i < ev.width; i++ {
			e.Schedule(0, ev)
		}
	}
}

// actorsEvent keeps width actor-keyed events at one timestamp, the way
// ping-pong's synchronised sends arrive: the event dispatched k-th in a
// group schedules the next group's event of actor perm[k], so keys reach the
// heap in scrambled actor order. Each actor starts its counter at its own
// offset below 2^16, as actors with different histories do, so the low key
// bits vary across a group as well as the actor ids.
type actorsEvent struct {
	left, k int
	perm    []int
	actors  []sim.Actor
}

func (ev *actorsEvent) Run(e *sim.Engine) {
	ev.left--
	if ev.left >= len(ev.perm) {
		e.ScheduleKey(e.Now().Add(sim.Nanosecond), ev.actors[ev.perm[ev.k]].Next(), ev)
	}
	if ev.k++; ev.k == len(ev.perm) {
		ev.k = 0
	}
}

// TieActors is the loop of width-wide tie groups of permuted Actor keys,
// the shape closed-loop ping-pong produces. The width is capped at n.
func TieActors(width int) Loop {
	return func(e *sim.Engine, n int) {
		width := min(width, n)
		rng := sim.NewRNG(uint64(width))
		ev := &actorsEvent{left: n, perm: make([]int, width), actors: make([]sim.Actor, width)}
		rng.Perm(ev.perm)
		for i := range ev.actors {
			ev.actors[i] = sim.MakeActor(uint32(i+1)) + sim.Actor(rng.Intn(1<<16))
		}
		for _, p := range ev.perm {
			e.ScheduleKey(0, ev.actors[p].Next(), ev)
		}
	}
}
