package sim

import "math"

// Actor is a per-model-object tie-break key stream for ScheduleKey. The key
// is the actor id in the high 32 bits and a monotonically increasing draw
// counter in the low 32, so:
//
//   - keys from one actor are strictly increasing in the order the actor
//     draws them, and
//   - keys from distinct actors never collide.
//
// Because an actor only draws keys while one of its own events is executing
// (or during deterministic pre-run setup), the sequence of keys it draws —
// and therefore the dispatch order among same-time events — is a pure
// function of the model, independent of how actors are packed onto shards.
//
// Actor ids must be >= 1: the engine-global FIFO counter used by the legacy
// Schedule path lives below 1<<32, and id 0 would collide with it.
type Actor uint64

// MakeActor returns a fresh key stream for actor id (id >= 1).
func MakeActor(id uint32) Actor {
	if id == 0 {
		panic("sim: actor id must be >= 1")
	}
	return Actor(id) << 32
}

// Next returns the current key and advances the stream. It panics rather
// than draw the last key of its 32-bit counter: advancing past it would
// carry into the id and hand out the next actor's keys, breaking both
// guarantees above in silence.
func (a *Actor) Next() uint64 {
	k := uint64(*a)
	if uint32(k) == math.MaxUint32 {
		panic("sim: actor key stream exhausted (2^32-1 keys drawn)")
	}
	*a++
	return k
}
