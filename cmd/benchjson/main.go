// Command benchjson runs the simulator's gated benchmarks and writes the
// results as machine-readable JSON (BENCH_sim.json by default), the
// performance-regression baseline CI checks against.
//
// Every entry is one row of the entries table: its name, the body it times
// and the gate -check holds it to. The engine entries time the loops in
// internal/sim/simbench, the same bodies internal/sim's benchmarks time.
// Host-time end-to-end numbers are not re-timed here: the root Benchmark*
// functions (BenchmarkBaldurSimulator, BenchmarkBaldurSimulatorSharded,
// BenchmarkFig6Transpose, ...) and the workloads under bench/ own them.
//
//	benchjson                  # writes BENCH_sim.json
//	benchjson -out -           # JSON to stdout
//	benchjson -check BENCH_sim.json   # also diff against a committed
//	                                  # baseline; exit 1 on regression
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"

	"baldur/internal/check"
	"baldur/internal/check/calib"
	"baldur/internal/check/harness"
	"baldur/internal/exp"
	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/prof"
	"baldur/internal/sim"
	"baldur/internal/sim/simbench"
	"baldur/internal/telemetry"
	"baldur/internal/twin"
	"baldur/internal/workload"
)

// result is one benchmark's measurements.
type result struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	AllocsOp   int64              `json:"allocs_per_op"`
	BytesOp    int64              `json:"bytes_per_op"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	GoOS       string   `json:"goos"`
	GoArch     string   `json:"goarch"`
	Benchmarks []result `json:"benchmarks"`
}

// gateKind is how -check judges an entry. Only baselineNs reads the
// committed baseline; the other kinds gate the fresh run alone, against an
// absolute limit, because each pins a claim that holds on any runner.
type gateKind int

const (
	// baselineNs: ns/op at most checkTolerance over the committed
	// baseline. An entry missing from the baseline (the change that
	// introduces it) is a SKIP, an unusable baseline entry (ns/op <= 0) a
	// WARN, and a baseline entry the run no longer produces a WARN: the
	// baseline is stale and should be regenerated.
	baselineNs gateKind = iota
	// typedRatio: ns/op divided by engine_schedule_dispatch_typed's from the
	// same run at most limit. Dividing by a kernel loop timed in the same
	// process cancels runner speed. A run without the typed loop FAILs.
	typedRatio
	// allocsCeil: the extra_allocs_op metric at most limit. An entry
	// without the metric has measured nothing and FAILs.
	allocsCeil
	// bytesPerNodeCeil: the bytes_per_node metric at most limit. A value
	// <= 0 means peak RSS is unavailable on the platform: a WARN.
	bytesPerNodeCeil
	// speedupFloor: the speedup_x metric at least limit.
	speedupFloor
)

// checkTolerance is the allowed ns/op growth over the committed baseline
// before a baselineNs entry fails.
const checkTolerance = 0.15

// tieGroupWidth is the tie-group entries' group size: one event per node of
// an 8K-node network sending in lockstep.
const tieGroupWidth = 8192

// entry is one benchmark: its name in the JSON, the body timed, and its
// gate with the gate's ceiling or floor.
type entry struct {
	name  string
	body  func(b *testing.B)
	gate  gateKind
	limit float64
}

// entries is every benchmark benchjson runs, in run order.
var entries = []entry{
	// The plain dispatch loop, one event rescheduling itself with 1000
	// events in flight: an event-kernel hot loop whose timing is stable
	// enough for a hard baseline threshold.
	{"engine_schedule_dispatch_typed", engineLoop(simbench.Typed), baselineNs, 0},
	// engine_tie_dispatch is the FIFO shape: one event rescheduling itself,
	// so its 8,192-wide tie groups come off the heap reversed. Its dispatch
	// costs about 60 ns on a 2-vCPU Xeon VM, about 0.5-0.7x a plain
	// dispatch; a sort quadratic in reversed order puts it near 100x. The
	// host-time benchmark's sim.tie_dispatch_ns (bench/calibrate.go) times
	// this FIFO shape too, not the actor shape below.
	{"engine_tie_dispatch", engineLoop(simbench.TieFIFO(tieGroupWidth)), typedRatio, 4.0},
	// engine_tie_dispatch_actors is the shape closed-loop ping-pong
	// produces: 8,192-wide tie groups of Actor keys that reach the heap in
	// permuted order. The radix sort dispatches them in about 75-90 ns on
	// the same VM; in six runs alternated with the comparison sort it
	// replaced, the ratio was 0.58-0.72x (median 0.67x) against 2.03-2.38x
	// for pdqsort, which pays its O(n log n) case on this shape. The ceiling
	// sits about 1.8x above the radix sort's median and below every pdqsort
	// run.
	{"engine_tie_dispatch_actors", engineLoop(simbench.TieActors(tieGroupWidth)), typedRatio, 1.2},
	{"telemetry_overhead", benchTelemetryOverhead, baselineNs, 0},
	// Spans land in the preallocated flight-recorder rings, so even the
	// enabled tracer must allocate nothing per span, which bounds the
	// disabled path (one predictable branch per lifecycle site) a fortiori.
	// The slack covers runtime-internal allocations landing inside the
	// measurement window; a real leak in the per-packet trace sites would
	// show up as hundreds per op.
	{"trace_overhead", benchTraceOverhead, allocsCeil, 8},
	// The disabled fault path's whole budget is the one Controller
	// allocation per run plus slack for runtime-internal allocations landing
	// inside the measurement window; an allocation creeping into the
	// per-arrival fault guards would show up as hundreds per op (the cell
	// injects 192 packets) and trip the gate.
	{"faults_overhead", benchFaultsOverhead, allocsCeil, 8},
	// Non-flow packets return from the workload's delivery hook after a
	// single Flow == 0 branch, the same nil-probe discipline as the
	// telemetry and fault layers, so the differential must be zero up to
	// runtime-internal allocations landing inside the measurement window. A
	// real allocation creeping into the delivery probe would scale with the
	// cell's packet count (hundreds per op) and trip the gate.
	{"workload_overhead", benchWorkloadOverhead, allocsCeil, 8},
	// The twin's whole reason to exist is the orders-of-magnitude
	// wall-clock ratio over the packet engine, so the gate pins the claim
	// itself.
	{"twin_speedup", benchTwinSpeedup, speedupFloor, 100},
	// Measured ~5.7 KB/node with the SoA state layout; the ceiling leaves
	// headroom for allocator and runner variance while still catching a
	// return to pointer-heavy per-node state (which measured several times
	// higher). The claim itself, bounded memory per node, is what the entry
	// exists to pin.
	//
	// Last on purpose: peak RSS is a process-lifetime high-water mark, so
	// the 128K-node runs must come after every smaller benchmark for
	// bytes_per_node to measure them and not be measured by them.
	{"scale_datacenter", benchScaleDatacenter, bytesPerNodeCeil, 8192},
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output file ('-' for stdout)")
	check := flag.String("check", "", "baseline JSON to diff against; exits 1 if a gated engine microbenchmark regresses by >15% ns/op, or if a fresh-run gate fails (tie-dispatch ratios, overhead extra allocs, twin speedup floor, datacenter bytes/node)")
	flag.Parse()

	rep := report{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, Benchmarks: make([]result, 0, len(entries))}
	for _, en := range entries {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			en.body(b)
		})
		res := result{
			Name:       en.name,
			Iterations: r.N,
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsOp:   r.AllocsPerOp(),
			BytesOp:    r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = r.Extra
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "%-36s %12.1f ns/op %8d allocs/op\n", en.name, res.NsPerOp, res.AllocsOp)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	switch {
	case *out == "-":
		os.Stdout.Write(data)
	case *out != "":
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if *check != "" && !checkAgainst(*check, rep) {
		os.Exit(1)
	}
}

// checkAgainst compares the fresh measurements against a committed baseline
// and reports whether every gated benchmark stayed within tolerance.
func checkAgainst(path string, fresh report) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing baseline %s: %w", path, err))
	}
	ok := compare(base, fresh, os.Stderr)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: -check failed against %s (see the REGRESSION/FAIL lines above)\n", path)
	}
	return ok
}

// compare walks the entries table and reports whether every entry the
// fresh run produced passed its gate. Names outside the table are ignored.
// Mismatched sets never crash and never fail the gate silently: see
// gateKind for each kind's SKIP, WARN and FAIL paths.
func compare(base, fresh report, w io.Writer) bool {
	baseline, run := byName(base), byName(fresh)
	ok := true
	for _, en := range entries {
		r, produced := run[en.name]
		if !produced {
			if _, stale := baseline[en.name]; stale && en.gate == baselineNs {
				fmt.Fprintf(w, "check %-36s WARN: in baseline but not produced by this run; baseline is stale\n", en.name)
			}
			continue
		}
		if !en.check(r, baseline, run, w) {
			ok = false
		}
	}
	return ok
}

func byName(rep report) map[string]result {
	m := make(map[string]result, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		m[r.Name] = r
	}
	return m
}

// check prints the verdict line of r, the fresh run's measurement of en,
// and reports whether it passed en's gate.
func (en entry) check(r result, baseline, run map[string]result, w io.Writer) bool {
	switch en.gate {
	case baselineNs:
		b, found := baseline[en.name]
		switch {
		case !found:
			fmt.Fprintf(w, "check %-36s SKIP: not in baseline (new benchmark? regenerate the baseline to gate it)\n", en.name)
			return true
		case b.NsPerOp <= 0:
			fmt.Fprintf(w, "check %-36s WARN: baseline ns/op = %g is unusable; not gated\n", en.name, b.NsPerOp)
			return true
		}
		ratio := r.NsPerOp / b.NsPerOp
		fail := ratio > 1+checkTolerance
		fmt.Fprintf(w, "check %-36s %8.1f -> %8.1f ns/op (%+.1f%%) %s\n",
			en.name, b.NsPerOp, r.NsPerOp, (ratio-1)*100, verdict(fail))
		return !fail
	case typedRatio:
		typed := run["engine_schedule_dispatch_typed"]
		if typed.NsPerOp <= 0 {
			fmt.Fprintf(w, "check %-36s FAIL: no engine_schedule_dispatch_typed ns/op in this run to divide by\n", en.name)
			return false
		}
		x := r.NsPerOp / typed.NsPerOp
		fail := x > en.limit
		fmt.Fprintf(w, "check %-36s %8.2fx engine_schedule_dispatch_typed (ceiling %gx) %s\n",
			en.name, x, en.limit, verdict(fail))
		return !fail
	case allocsCeil:
		extra, found := r.Extra["extra_allocs_op"]
		if !found {
			fmt.Fprintf(w, "check %-36s FAIL: no extra_allocs_op metric in this run\n", en.name)
			return false
		}
		fail := extra > en.limit
		fmt.Fprintf(w, "check %-36s %8.1f extra allocs/op (ceiling %.0f) %s\n",
			en.name, extra, en.limit, verdict(fail))
		return !fail
	case bytesPerNodeCeil:
		bpn := r.Extra["bytes_per_node"]
		if bpn <= 0 {
			fmt.Fprintf(w, "check %-36s WARN: peak RSS unavailable on this platform; not gated\n", en.name)
			return true
		}
		fail := bpn > en.limit
		fmt.Fprintf(w, "check %-36s %8.0f B/node (ceiling %.0f) %s\n",
			en.name, bpn, en.limit, verdict(fail))
		return !fail
	default: // speedupFloor
		sx := r.Extra["speedup_x"]
		fail := sx < en.limit
		fmt.Fprintf(w, "check %-36s %8.0fx speedup (floor %.0fx) %s\n",
			en.name, sx, en.limit, verdict(fail))
		return !fail
	}
}

func verdict(fail bool) string {
	if fail {
		return "REGRESSION"
	}
	return "ok"
}

// engineLoop times one dispatch of a simbench loop.
func engineLoop(loop simbench.Loop) func(b *testing.B) {
	return func(b *testing.B) { simbench.Run(b, loop) }
}

func benchScale() exp.Scale {
	sc := exp.Quick
	sc.PacketsPerNode = 60
	return sc
}

// benchTelemetryOverhead runs the root BenchmarkBaldurSimulator's workload
// with the full telemetry layer enabled (counters, gauges, and the flight
// recorder; no file export): the recording tax of the instrumented path.
// The disabled path is BenchmarkBaldurSimulator itself, where probes stay
// nil, so comparing the two ns/op on one host gives the full on/off cost
// of the observability layer.
func benchTelemetryOverhead(b *testing.B) {
	sc := benchScale()
	var totalSamples, totalRecords int
	for i := 0; i < b.N; i++ {
		// Fresh Options per run: the harness treats them as per-run state.
		sc.Telemetry = &telemetry.Options{}
		d, err := exp.RunOpenLoopDetail("baldur", "random_permutation", 0.7, sc)
		if err != nil {
			b.Fatal(err)
		}
		tel := d.Telemetry
		totalSamples += len(tel.Sampler.Samples)
		for s := 0; s < tel.Reg.Shards(); s++ {
			totalRecords += tel.Ring(s).Len()
		}
	}
	b.ReportMetric(float64(totalSamples)/float64(b.N), "samples/run")
	b.ReportMetric(float64(totalRecords)/float64(b.N), "records/run")
}

// benchTraceOverhead prices the packet-lifecycle tracer the way
// benchFaultsOverhead prices the fault layer: the same telemetry-attached
// baldur cell runs b.N times with span capture off and b.N times tracing
// 1 in 2 packets, and the allocation difference per run is reported as
// extra_allocs_op. Both sides preallocate identical flight-recorder rings,
// so the differential isolates the per-packet trace sites; spans are written
// in place into the rings and must not allocate even when sampled. -check
// gates extra_allocs_op against its absolute ceiling (no baseline needed),
// pinning the acceptance claim that a trace-capable build costs untraced
// runs nothing on the allocation side.
func benchTraceOverhead(b *testing.B) {
	measure := func(every int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			sc := benchScale()
			sc.Telemetry = &telemetry.Options{FlightRecords: 1 << 17, TraceSample: every}
			if _, err := exp.RunOpenLoopDetail("baldur", "random_permutation", 0.7, sc); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(b.N)
	}
	off := measure(0)
	on := measure(2)
	b.ReportMetric(on-off, "extra_allocs_op")
	b.ReportMetric(off, "untraced_allocs_op")
}

// overheadCell is the open-loop baldur cell faults_overhead and
// workload_overhead run with and without their layer, to overheadDeadline.
var overheadCell = check.FuzzConfig{
	Net: "baldur", NodesExp: 4, LoadPct: 70, PacketsPerNode: 12,
	FaultStage: -1, Seed: 1,
}.Canon()

const overheadDeadline = sim.Time(500 * sim.Microsecond)

// benchFaultsOverhead prices the fault-injection layer's disabled path: the
// same open-loop baldur cell runs b.N times through the plain Network.Run
// loop and b.N times through netsim.Drive with an empty fault script, and
// the allocation difference per run is reported as extra_allocs_op. The
// ns/op of this entry covers both phases and is not gated; -check gates
// extra_allocs_op against its absolute ceiling, pinning the claim that a
// fault-capable build costs scripted-free runs nothing on the allocation
// side.
func benchFaultsOverhead(b *testing.B) {
	measure := func(drive func(net netsim.Network)) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			net, _, err := harness.Build(overheadCell, 1)
			if err != nil {
				b.Fatal(err)
			}
			var col netsim.Collector
			col.Attach(net)
			harness.StartOpenLoop(net, overheadCell)
			drive(net)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(b.N)
	}
	plain := measure(func(net netsim.Network) { net.Run(overheadDeadline) })
	scripted := measure(func(net netsim.Network) {
		ctrl := faults.NewController(faults.Script{})
		if _, err := netsim.Drive(net, ctrl, netsim.DriveOptions{Deadline: overheadDeadline}); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(scripted-plain, "extra_allocs_op")
	b.ReportMetric(plain, "plain_allocs_op")
}

// benchWorkloadOverhead prices the service-workload layer's disabled path:
// the same open-loop baldur cell runs b.N times with no workload driver and
// b.N times with an idle driver attached (its only tenant's first arrival
// falls far beyond the workload deadline, and a reject_all policy backstops
// the astronomically unlikely early draw), and the allocation difference per
// run is reported as extra_allocs_op. Unlike faults_overhead, the
// measurement window covers only the event loop — driver setup (per-shard
// accumulators, per-source injectors) is a legitimate fixed attach cost and
// is excluded — so the differential isolates the per-delivery nil probe:
// every OpenLoop packet traverses the workload's delivery hook and must
// return after the one Flow == 0 branch without allocating. -check gates
// extra_allocs_op against its absolute ceiling.
func benchWorkloadOverhead(b *testing.B) {
	idle := workload.Spec{
		Name:       "idle",
		Seed:       1,
		DurationUS: 1,
		Tenants: []workload.TenantSpec{{
			Name:      "idle",
			Arrival:   workload.ArrivalSpec{Process: "poisson", RateFPS: 1e-3},
			Size:      workload.SizeSpec{Dist: "fixed", Bytes: 512},
			Admission: workload.PolicySpec{Policy: "reject_all"},
		}},
	}
	measure := func(attach bool) float64 {
		var total uint64
		var before, after runtime.MemStats
		for i := 0; i < b.N; i++ {
			net, _, err := harness.Build(overheadCell, 1)
			if err != nil {
				b.Fatal(err)
			}
			var col netsim.Collector
			col.Attach(net)
			if attach {
				drv, err := workload.New(idle)
				if err != nil {
					b.Fatal(err)
				}
				if err := drv.Attach(net); err != nil {
					b.Fatal(err)
				}
			}
			harness.StartOpenLoop(net, overheadCell)
			runtime.ReadMemStats(&before)
			net.Run(overheadDeadline)
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		return float64(total) / float64(b.N)
	}
	plain := measure(false)
	attached := measure(true)
	b.ReportMetric(attached-plain, "extra_allocs_op")
	b.ReportMetric(plain, "plain_allocs_op")
}

// twinPasses is how many calib.Run passes twin_speedup takes the median
// of. The twin side of one pass is about 100 ms of wall time, so a single
// pass's ratio read anywhere from 77x to 167x on a 2-vCPU host; the median
// of five does not hang on one pass's scheduling luck.
const twinPasses = 5

// benchTwinSpeedup measures the analytical twin's wall-clock advantage over
// the packet engine on the heavy edge of its validity envelope: every
// network the twin models, every Fig 6 pattern, load twin.MaxLoad — the
// cells that dominate an envelope sweep's wall time. Packets per node is
// pinned at the paper's 10,000: the packet engine's cost scales linearly
// with per-node volume while the twin's is nearly independent of it (its
// only O(packets) term is the injection-draw replay at ~10 ns/draw), so
// CI-sized node counts at full per-node volume reproduce the wall-time
// ratio that matters for real sweeps. calib.Run refuses a cell outside the
// envelope, so both passes time what they name. The speedup_x extra, the
// median over twinPasses passes (with its range beside it), is gated by
// -check against an absolute >=100x floor.
func benchTwinSpeedup(b *testing.B) {
	sc := exp.Quick
	sc.PacketsPerNode = 10000
	g := calib.Grid{
		Networks: twin.Networks,
		Patterns: twin.Patterns,
		Loads:    []float64{twin.MaxLoad},
	}
	var speedup, packetMS, twinMS []float64
	for i := 0; i < b.N*twinPasses; i++ {
		rep, err := calib.Run(sc, g)
		if err != nil {
			b.Fatal(err)
		}
		speedup = append(speedup, rep.SpeedupX)
		packetMS = append(packetMS, rep.PacketWallMS)
		twinMS = append(twinMS, rep.TwinWallMS)
	}
	b.ReportMetric(median(speedup), "speedup_x")
	b.ReportMetric(slices.Min(speedup), "speedup_x_min")
	b.ReportMetric(slices.Max(speedup), "speedup_x_max")
	b.ReportMetric(median(packetMS), "packet_wall_ms")
	b.ReportMetric(median(twinMS), "twin_wall_ms")
}

// median returns the middle of xs (the mean of the two middles for an even
// count), sorting xs in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[mid-1] + xs[mid]) / 2
	}
	return xs[mid]
}

// benchScaleDatacenter runs the 128K-node memory-diet preset end to end —
// one 131,072-node Baldur run and one 128,000-host fat-tree run per
// iteration — and reports throughput plus the process's peak RSS read after
// both complete. bytes_per_node divides that peak by the Baldur node count
// (the larger denominator of the two would flatter the number; the preset's
// nominal scale is the honest one). -check gates bytes_per_node against the
// absolute ceiling rather than a baseline ratio.
func benchScaleDatacenter(b *testing.B) {
	sc := exp.Datacenter
	var baldurEvents, fattreeEvents uint64
	for i := 0; i < b.N; i++ {
		p, err := exp.RunOpenLoop("baldur", "random_permutation", 0.5, sc)
		if err != nil {
			b.Fatal(err)
		}
		baldurEvents += p.Events
		p, err = exp.RunOpenLoop("fattree", "random_permutation", 0.5, sc)
		if err != nil {
			b.Fatal(err)
		}
		fattreeEvents += p.Events
	}
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(baldurEvents+fattreeEvents)/secs, "events/s")
	b.ReportMetric(float64(baldurEvents)/float64(b.N), "baldur_events/run")
	b.ReportMetric(float64(fattreeEvents)/float64(b.N), "fattree_events/run")
	peak := prof.PeakRSSBytes()
	b.ReportMetric(float64(peak), "peak_rss_bytes")
	b.ReportMetric(float64(peak)/float64(sc.Nodes), "bytes_per_node")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
