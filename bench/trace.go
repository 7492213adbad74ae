package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call: nothing inside the simulator is instrumented. Spans hold no
// pointers, so a traced pass's hundred thousand spans add nothing to the
// collector's scan work.
type span struct {
	Name   uint16 // index into tracer.names
	Cell   int32  // index into the pass's cells; -1 for the workload span
	Parent int32  // index of the enclosing span; -1 at the root
	Start  time.Duration
	End    time.Duration
}

// tracer records spans in memory for one pass. Coarse spans (cell, build,
// attach, run, fold) are recorded on every pass because the end-to-end
// set-up time is read from them; fine is set on traced passes only and adds
// one span per run slice, heap deltas across constructors and the
// Chrome-trace export. With a reference clock attached, checkpoint takes
// its samples with the tracer's clock stopped, so no span includes them.
type tracer struct {
	origin  time.Time
	stopped time.Duration // time spent in reference samples
	ref     *refClock
	fine    bool
	names   []string
	ids     map[string]uint16
	spans   []span
	open    []int
}

func newTracer(fine bool) *tracer {
	return &tracer{origin: time.Now(), fine: fine, ids: make(map[string]uint16)}
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) - t.stopped }

// checkpoint takes a reference sample if one is due. Cells call it between
// the layer calls they time.
func (t *tracer) checkpoint() {
	if t.ref == nil || !t.ref.due() {
		return
	}
	t0 := time.Now()
	t.ref.sample()
	t.stopped += time.Since(t0)
}

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name string, cell int) int {
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: id, Cell: int32(cell), Parent: int32(parent), Start: t.now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span, and returns its
// duration in seconds.
func (t *tracer) end(i int) float64 {
	if n := len(t.open); n == 0 || t.open[n-1] != i {
		panic(fmt.Sprintf("bench: span %q closed out of order", t.names[t.spans[i].Name]))
	}
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = t.now()
	return (s.End - s.Start).Seconds()
}

// selfSeconds returns each span name's total self time: its spans' durations
// minus the time covered by their direct children.
func (t *tracer) selfSeconds() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[t.names[s.Name]] += self[i].Seconds()
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome-trace JSON to path. Spans of one
// thread nest by time, so the viewer shows workload → cell → call.
func (t *tracer) writeChrome(path string, cells []cellResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	// Viewers expect events in start order; ties put parents first.
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].Start < t.spans[order[b]].Start })
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for n, i := range order {
		s := t.spans[i]
		ev := chromeEvent{
			Name: t.names[s.Name], Cat: "bench", Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
		}
		if s.Cell >= 0 {
			ev.Cat = cells[s.Cell].Net
			ev.Args = map[string]string{"cell": cells[s.Cell].ID}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			f.Close()
			return err
		}
		if n > 0 {
			w.WriteByte(',')
		}
		w.Write(b)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
