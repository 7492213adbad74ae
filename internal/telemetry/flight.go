package telemetry

import (
	"sort"

	"baldur/internal/sim"
)

// RecordKind enumerates packet-lifecycle events the flight recorder captures.
type RecordKind uint8

// Flight-recorder event kinds.
const (
	KindInject     RecordKind = iota // packet handed to the source NIC
	KindHop                          // switch/router traversal (Dur = wire/port occupancy)
	KindBlock                        // transmission stalled (backoff window, credit starvation)
	KindDrop                         // bufferless in-network drop
	KindAck                          // acknowledgement closed the loop at the sender
	KindDeliver                      // last bit reached the destination
	KindRetransmit                   // retransmission timer fired
	KindFault                        // fault-script event applied (Aux = faults.Action)
	KindSpan                         // lifecycle span of a traced packet (Phase set, Dur = length)
)

// String returns the kind's short name (used by the CSV exporter and the
// Chrome trace event names).
func (k RecordKind) String() string {
	switch k {
	case KindInject:
		return "inject"
	case KindHop:
		return "hop"
	case KindBlock:
		return "block"
	case KindDrop:
		return "drop"
	case KindAck:
		return "ack"
	case KindDeliver:
		return "deliver"
	case KindRetransmit:
		return "retransmit"
	case KindFault:
		return "fault"
	case KindSpan:
		return "span"
	}
	return "unknown"
}

// Record is one flight-recorder entry. The struct is a plain value — rings
// copy it in place, so recording never allocates.
type Record struct {
	At  sim.Time
	Dur sim.Duration // Hop: wire/port occupancy; otherwise 0
	Pkt uint64       // packet id
	Src int32
	Dst int32
	// Loc locates the event inside the network: Baldur stage, electrical
	// router id, or -1 for host-side events (inject/deliver/ack/block).
	Loc  int32
	Aux  int32 // Baldur: switch id; elecnet: VC
	Kind RecordKind
	// Phase classifies KindSpan records; PhaseNone otherwise. The field
	// lives in the struct's existing padding, so Record stays 48 bytes.
	Phase Phase
}

// Ring is one shard's bounded record buffer. Each ring is written by exactly
// one shard goroutine; when full it overwrites its oldest entries, keeping
// the most recent window — the flight-recorder semantic.
type Ring struct {
	buf []Record
	n   uint64 // total records ever appended
}

// Add appends rec, overwriting the oldest entry when the ring is full.
func (r *Ring) Add(rec Record) {
	r.buf[int(r.n)%len(r.buf)] = rec
	r.n++
}

// Len returns the number of records currently held.
func (r *Ring) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Overwritten returns how many records were lost to wrap-around.
func (r *Ring) Overwritten() uint64 {
	if r.n < uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// FlightRecorder is the set of per-shard rings of one run.
type FlightRecorder struct {
	rings []*Ring
}

// NewFlightRecorder allocates K rings of perShard records each.
func NewFlightRecorder(shards, perShard int) *FlightRecorder {
	if shards < 1 {
		shards = 1
	}
	if perShard < 1 {
		perShard = 1
	}
	f := &FlightRecorder{rings: make([]*Ring, shards)}
	for i := range f.rings {
		f.rings[i] = &Ring{buf: make([]Record, perShard)}
	}
	return f
}

// Ring returns shard i's ring.
func (f *FlightRecorder) Ring(i int) *Ring { return f.rings[i] }

// Overwritten sums wrap-around losses across all rings.
func (f *FlightRecorder) Overwritten() uint64 {
	var n uint64
	for _, r := range f.rings {
		n += r.Overwritten()
	}
	return n
}

// Records merges every ring's retained records and sorts them by every
// field, (time, packet, kind, phase, location, source, destination, aux,
// duration).
// The comparator is a full lexicographic order, so any records that still
// tie are bit-identical and the export is deterministic regardless of how
// records were distributed over shards. Call only at a barrier.
func (f *FlightRecorder) Records() []Record {
	total := 0
	for _, r := range f.rings {
		total += r.Len()
	}
	out := make([]Record, 0, total)
	for _, r := range f.rings {
		n := r.Len()
		for i := 0; i < n; i++ {
			out = append(out, r.buf[i])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Pkt != b.Pkt {
			return a.Pkt < b.Pkt
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Loc != b.Loc {
			return a.Loc < b.Loc
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Aux != b.Aux {
			return a.Aux < b.Aux
		}
		return a.Dur < b.Dur
	})
	return out
}
