// Package telemetry is the observability layer of the simulator: a
// counter/gauge registry with per-shard cache-line-padded slots, an interval
// sampler that turns the registry into a time series, and a bounded
// ring-buffer flight recorder for per-packet lifecycle events with Chrome
// trace-event (Perfetto-loadable) and CSV exporters.
//
// The layer is strictly opt-in: networks hold a nil probe pointer when
// telemetry is not attached, so the only cost on the simulation hot path is
// one nil check per instrumented site — no allocations, no atomic traffic.
// When attached, every handle resolves to a pre-computed slot pointer, so
// steady-state recording also performs no allocation.
//
// Determinism: counters accumulate into per-shard slots, or into the model's
// own per-shard values for counters registered with CounterOf (each updated
// only by its owning shard's goroutine during an epoch), and are folded across
// shards in ascending shard order at barriers. Because every model event
// executes exactly once regardless of the shard count and integer sums are
// order-invariant, the folded metric series is bit-identical for any K —
// the same guarantee the sharded engine gives the end-of-run statistics.
package telemetry

import "fmt"

// MetricKind distinguishes cumulative counters from instantaneous gauges.
type MetricKind uint8

// Metric kinds.
const (
	// KindCounter is a monotonically increasing count (drops, deliveries).
	// The sampler reports per-interval deltas, so summing a counter column
	// over all samples reproduces the end-of-run total exactly.
	KindCounter MetricKind = iota
	// KindGauge is an instantaneous level (queue occupancy, busy wires),
	// refreshed by the owning model's probe callback at each barrier.
	KindGauge
)

// slot is one (metric, shard) accumulator, padded to a cache line so
// neighbouring shards' hot counters never false-share.
type slot struct {
	v uint64
	_ [56]byte
}

// Registry holds the named metrics of one run. Metrics are registered at
// attach time (before the run starts); recording happens through resolved
// Count handles, or directly into model memory for counters registered with
// CounterOf, and is allocation-free.
type Registry struct {
	shards int
	names  []string
	kinds  []MetricKind
	vals   [][]*uint64 // per metric: one value per shard, in shard order
}

// NewRegistry returns an empty registry for a K-shard run.
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{shards: shards}
}

// Counter registers a cumulative counter and returns its metric id.
func (r *Registry) Counter(name string) int { return r.add(name, KindCounter) }

// Gauge registers an instantaneous gauge and returns its metric id.
func (r *Registry) Gauge(name string) int { return r.add(name, KindGauge) }

// CounterOf registers a cumulative counter whose per-shard values live in
// the model — vals holds one pointer per shard, in shard order — and returns
// its metric id. Each value must only be written by its shard's goroutine;
// the registry reads them at barriers, like its own slots.
func (r *Registry) CounterOf(name string, vals []*uint64) int {
	if len(vals) != r.shards {
		panic(fmt.Sprintf("telemetry: counter %q has %d shard values, registry has %d shards", name, len(vals), r.shards))
	}
	return r.register(name, KindCounter, vals)
}

func (r *Registry) add(name string, kind MetricKind) int {
	slots := make([]slot, r.shards)
	vals := make([]*uint64, r.shards)
	for i := range slots {
		vals[i] = &slots[i].v
	}
	return r.register(name, kind, vals)
}

func (r *Registry) register(name string, kind MetricKind, vals []*uint64) int {
	for _, n := range r.names {
		if n == name {
			panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
		}
	}
	r.names = append(r.names, name)
	r.kinds = append(r.kinds, kind)
	r.vals = append(r.vals, vals)
	return len(r.names) - 1
}

// Count is a resolved handle onto one (metric, shard) slot. The zero value
// is invalid; call sites guard with a nil probe check, not a nil handle
// check, so Inc/Add/Set stay branch-free.
type Count struct{ v *uint64 }

// Inc adds one.
func (c Count) Inc() { *c.v++ }

// Add adds n.
func (c Count) Add(n uint64) { *c.v += n }

// Set overwrites the slot (gauges).
func (c Count) Set(n uint64) { *c.v = n }

// Count resolves the handle for metric id on the given shard.
func (r *Registry) Count(id, shard int) Count { return Count{v: r.vals[id][shard]} }

// Shards returns the shard count the registry was built for.
func (r *Registry) Shards() int { return r.shards }

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string { return r.names }

// Kinds returns the metric kinds in registration order.
func (r *Registry) Kinds() []MetricKind { return r.kinds }

// Index returns the metric id of name, or -1.
func (r *Registry) Index(name string) int {
	for i, n := range r.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Fold sums every metric across shards in ascending shard order into dst
// (grown as needed) and returns it. Call only at a barrier — between
// epochs or after a run — never while shard goroutines are dispatching.
func (r *Registry) Fold(dst []uint64) []uint64 {
	dst = dst[:0]
	for id := range r.vals {
		dst = append(dst, r.fold(id))
	}
	return dst
}

// Total returns the folded value of one metric by name (0 if absent).
func (r *Registry) Total(name string) uint64 {
	id := r.Index(name)
	if id < 0 {
		return 0
	}
	return r.fold(id)
}

// fold sums metric id across shards in ascending shard order.
func (r *Registry) fold(id int) uint64 {
	var v uint64
	for _, p := range r.vals[id] {
		v += *p
	}
	return v
}
