// Package simbench holds the event-kernel benchmark loops. internal/sim's
// Benchmark functions and cmd/benchjson's engine entries time these same
// bodies, so a kernel number has one definition wherever it is measured.
//
// A Loop schedules the first events of a loop on a fresh engine; running
// the engine then dispatches exactly n events. Run times that dispatch.
// Ratio times two bodies against each other in one process, and Ref is the
// fixed kernel an engine loop is timed against.
package simbench

import (
	"slices"
	"testing"
	"time"

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

// Ratio times a and b alternately, pairs times each, and returns the median
// over the pairs of a's time over b's, with each side's median time. A
// shared host's speed drifts by tens of percent over seconds to minutes;
// two bodies timed a moment apart in one process see about the same
// speed, so most of that drift cancels from their ratio, and the median
// drops the pairs a burst of other work spoils. The side that runs first
// alternates from pair to pair, so neither always pays what the other
// leaves behind (the garbage collector's debt, a cold cache).
func Ratio(pairs int, a, b func()) (x float64, aTime, bTime time.Duration) {
	timed := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0))
	}
	xs, as, bs := make([]float64, pairs), make([]float64, pairs), make([]float64, pairs)
	for i := range pairs {
		if i%2 == 0 {
			as[i] = timed(a)
			bs[i] = timed(b)
		} else {
			bs[i] = timed(b)
			as[i] = timed(a)
		}
		xs[i] = as[i] / bs[i]
	}
	return Median(xs), time.Duration(Median(as)), time.Duration(Median(bs))
}

// Median returns the middle of xs (the mean of the two middles for an even
// count), sorting xs in place.
func Median(xs []float64) float64 {
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[mid-1] + xs[mid]) / 2
	}
	return xs[mid]
}

// Ref runs ops operations of a fixed reference kernel and returns a
// checksum of its final heap. The kernel is a hold-model loop on a 4-ary
// min-heap of 4,096 timestamps, each operation replacing the earliest with
// a later one: an event kernel's access pattern, but code no change to the
// simulator touches, so an engine loop's time over Ref's cancels most of
// the host's speed and no simulator change moves Ref's side. Every call
// starts from the same heap and draws the same increments, so calls with
// one op count do the same work; the checksum, which grows with every
// operation, gives the caller something to keep so the loop cannot be
// dropped.
func Ref(ops int) uint64 {
	h := make([]uint64, 4096)
	for i := range h {
		h[i] = uint64(i) << 20
	}
	x := uint64(1)
	for range ops {
		x = x*6364136223846793005 + 1442695040888963407
		key := h[0] + 1 + x>>44
		i := 0
		for {
			c := 4*i + 1
			if c >= len(h) {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < len(h); j++ {
				if h[j] < h[m] {
					m = j
				}
			}
			if h[m] >= key {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = key
	}
	var sum uint64
	for _, v := range h {
		sum += v
	}
	return sum
}
