package telemetry

import (
	"fmt"
	"io"
	"os"
	"strings"

	"baldur/internal/sim"
)

// Options selects what a run records and where it goes. The zero value means
// "telemetry off"; harnesses treat a nil *Options the same way.
type Options struct {
	// SampleInterval is the simulated time between metric samples. When 0,
	// DefaultSampleInterval is used if any output is requested.
	SampleInterval sim.Duration
	// FlightRecords is the per-shard flight-recorder ring capacity.
	// 0 means DefaultFlightRecords; negative disables the recorder.
	FlightRecords int
	// TraceOut is the flight-recorder export path. Files ending in ".csv"
	// get the compact CSV form; anything else gets Chrome trace-event JSON
	// (loadable in Perfetto / chrome://tracing). Empty disables the export.
	TraceOut string
	// TraceSample enables packet-lifecycle span capture: 1 in TraceSample
	// packets (chosen by a hash of the packet id, so the traced set is
	// shard-count- and rerun-invariant) accumulates a causal chain of
	// typed spans in the flight recorder. 0 disables span capture; 1
	// traces every packet. Requires the flight recorder (FlightRecords
	// >= 0) — with the recorder disabled the rate is forced to 0.
	TraceSample int
	// MetricsOut is the metrics time-series CSV path. Empty disables it.
	MetricsOut string
	// Watch, when non-nil, receives one dashboard line per sample interval.
	Watch io.Writer
	// Label names the run in watch lines and trace metadata.
	Label string
}

// Default knobs for zero-valued Options fields.
const (
	DefaultSampleInterval = 10 * sim.Microsecond
	DefaultFlightRecords  = 1 << 16
)

// Telemetry bundles the registry, sampler, and flight recorder of one run.
// Construct with New, hand to the network's AttachTelemetry, then let the
// run driver call Sample at interval barriers and WriteOutputs at the end.
type Telemetry struct {
	Opts    Options
	Reg     *Registry
	Rec     *FlightRecorder // nil when Opts.FlightRecords < 0
	Sampler *Sampler

	probes []func()
}

// New builds a Telemetry for a K-shard run (shards < 1 is treated as 1).
func New(opts Options, shards int) *Telemetry {
	if opts.SampleInterval <= 0 {
		opts.SampleInterval = DefaultSampleInterval
	}
	t := &Telemetry{
		Opts: opts,
		Reg:  NewRegistry(shards),
		Sampler: &Sampler{
			Interval: opts.SampleInterval,
			Watch:    opts.Watch,
			Label:    opts.Label,
		},
	}
	if opts.FlightRecords >= 0 {
		n := opts.FlightRecords
		if n == 0 {
			n = DefaultFlightRecords
		}
		t.Rec = NewFlightRecorder(shards, n)
		// Ring overflow silently discards the oldest records, which can
		// make a trace look complete when it is not. Surface the loss as
		// an explicit cumulative counter: the sampler reports deltas, so
		// the metrics CSV shows per-interval drops.
		dropped := t.Reg.Count(t.Reg.Counter("trace_dropped_records"), 0)
		t.OnProbe(func() { dropped.Set(t.Rec.Overwritten()) })
	}
	return t
}

// Ring returns shard i's flight-recorder ring, or nil when the recorder is
// disabled. Networks resolve this once at attach time.
func (t *Telemetry) Ring(i int) *Ring {
	if t == nil || t.Rec == nil {
		return nil
	}
	return t.Rec.Ring(i)
}

// OnProbe registers a callback that refreshes gauge slots from live model
// state. Probes run inside Sample — always at a barrier, never concurrently
// with shard goroutines.
func (t *Telemetry) OnProbe(fn func()) { t.probes = append(t.probes, fn) }

// Sample refreshes gauges and appends one interval sample at virtual time
// at. events and epochs are the engine's cumulative execution totals; the
// sampler stores per-interval deltas. Call only at barriers.
func (t *Telemetry) Sample(at sim.Time, events, epochs uint64) {
	for _, fn := range t.probes {
		fn()
	}
	t.Sampler.Take(at, t.Reg, events, epochs)
}

// Interval returns the sampling interval.
func (t *Telemetry) Interval() sim.Duration { return t.Opts.SampleInterval }

// WriteOutputs writes the trace and metrics files named in Opts. Paths are
// transformed by tag (see Options docs on cmd/figures): a non-empty tag is
// inserted before the file extension so per-cell outputs do not clobber
// each other.
func (t *Telemetry) WriteOutputs(tag string) error {
	if t.Rec != nil && t.Rec.Overwritten() > 0 {
		fmt.Fprintf(os.Stderr, "telemetry: WARN flight recorder wrapped, %d oldest records dropped — the exported trace is incomplete (raise -flight-records); see the trace_dropped_records counter\n",
			t.Rec.Overwritten())
	}
	if t.Opts.TraceOut != "" {
		path := tagPath(t.Opts.TraceOut, tag)
		recs := []Record{}
		if t.Rec != nil {
			recs = t.Rec.Records()
		}
		if err := writeFile(path, func(w io.Writer) error {
			if strings.HasSuffix(path, ".csv") {
				return WriteFlightCSV(w, recs)
			}
			return WriteChromeTrace(w, recs, t.Opts.Label)
		}); err != nil {
			return fmt.Errorf("telemetry: trace export: %w", err)
		}
	}
	if t.Opts.MetricsOut != "" {
		path := tagPath(t.Opts.MetricsOut, tag)
		if err := writeFile(path, func(w io.Writer) error {
			return WriteMetricsCSV(w, t.Reg, t.Sampler.Samples)
		}); err != nil {
			return fmt.Errorf("telemetry: metrics export: %w", err)
		}
	}
	return nil
}

// tagPath inserts "-tag" before path's extension: out.json + "baldur" →
// out-baldur.json. Empty tags leave the path unchanged.
func tagPath(path, tag string) string {
	if tag == "" {
		return path
	}
	if i := strings.LastIndex(path, "."); i > strings.LastIndex(path, "/") {
		return path[:i] + "-" + tag + path[i:]
	}
	return path + "-" + tag
}

func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
