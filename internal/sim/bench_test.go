package sim_test

import (
	"fmt"
	"testing"

	"baldur/internal/sim"
	"baldur/internal/sim/simbench"
)

func BenchmarkEngineScheduleDispatchTyped(b *testing.B) { simbench.Run(b, simbench.Typed) }

// BenchmarkEngineTieGroup times one dispatch inside tie groups. The fifo
// cases reschedule one event with Schedule's FIFO keys, which the heap
// hands back reversed; the actors cases carry permuted Actor keys, the shape
// closed-loop ping-pong produces.
func BenchmarkEngineTieGroup(b *testing.B) {
	for _, width := range []int{16, 256, 8192} {
		b.Run(fmt.Sprint("fifo/", width), func(b *testing.B) { simbench.Run(b, simbench.TieFIFO(width)) })
	}
	for _, width := range []int{256, 8192} {
		b.Run(fmt.Sprint("actors/", width), func(b *testing.B) { simbench.Run(b, simbench.TieActors(width)) })
	}
}

// TestEngineWideTieGroupsDoNotAllocate: once the batch and its spare
// buffer have grown to the group's width, dispatching wide tie groups
// allocates nothing.
func TestEngineWideTieGroupsDoNotAllocate(t *testing.T) {
	e := sim.NewEngine()
	const width = 4096
	simbench.TieActors(width)(e, 1<<30)
	next := sim.Time(0)
	step := func() {
		e.RunUntil(next)
		next += sim.Time(sim.Nanosecond)
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("a %d-wide tie group allocated %.1f times, want 0", width, allocs)
	}
	if got := e.Executed; got != 52*width {
		t.Errorf("dispatched %d events, want %d", got, 52*width)
	}
}
