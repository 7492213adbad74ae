// Command benchjson runs the simulator's gated benchmarks and writes the
// results as machine-readable JSON (BENCH_sim.json by default, the
// committed record of the last run).
//
// Every entry is one row of the entries table: its name, the body it times,
// and the range -check holds one metric of the fresh run to. No gate reads
// a number taken on another host: a time is gated as a ratio to another
// body timed alternately in the same process, and counts and bytes are
// gated against absolute bounds. The engine entries time the loops in
// internal/sim/simbench, the same bodies internal/sim's benchmarks time.
// Host-time end-to-end numbers are not re-timed here: the root Benchmark*
// functions (BenchmarkBaldurSimulator, BenchmarkBaldurSimulatorSharded,
// BenchmarkFig6Transpose, ...) and the workloads under bench/ own them.
//
//	benchjson                  # writes BENCH_sim.json
//	benchjson -out -           # JSON to stdout
//	benchjson -out - -check    # also exit 1 if any entry leaves its range
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
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

// tieGroupWidth is the tie-group entries' group size: one event per node of
// an 8K-node network sending in lockstep.
const tieGroupWidth = 8192

var inf = math.Inf(1)

// entry is one benchmark: its name in the JSON, the body timed, and its
// gate. -check passes the entry when the fresh run reports metric and the
// value lies in [lo, hi]: a ceiling has lo = -inf, a floor hi = inf, an
// exact count lo == hi.
type entry struct {
	name   string
	body   func(b *testing.B)
	metric string
	lo, hi float64
}

// entries is every benchmark benchjson runs, in run order.
var entries = []entry{
	// The plain dispatch loop, one event rescheduling itself with 1000
	// events in flight, timed against the fixed reference kernel in the same
	// process. Five runs on a 2-vCPU Xeon VM read 1.02-1.27x (median 1.18x);
	// the ceiling is 1.15x that median, rounded down.
	{"engine_schedule_dispatch_typed", benchTypedVsRef, "x_ref", -inf, 1.35},
	// engine_tie_dispatch is the FIFO shape: one event rescheduling itself,
	// so its 8,192-wide tie groups come off the heap reversed. A sort
	// quadratic in reversed order puts it near 100x a plain dispatch. The
	// host-time benchmark's sim.tie_dispatch_ns (bench/calibrate.go) times
	// this FIFO shape too, not the actor shape below. Five runs on a 2-vCPU
	// Xeon VM read 0.61-0.67x (median 0.63x); the ceiling is 1.5x that
	// median, rounded down to a tenth.
	{"engine_tie_dispatch", tieVsTyped(simbench.TieFIFO(tieGroupWidth)), "x_typed", -inf, 0.9},
	// engine_tie_dispatch_actors is the shape closed-loop ping-pong
	// produces: 8,192-wide tie groups of Actor keys that reach the heap in
	// permuted order. The radix sort dispatches them in about 75-90 ns on
	// a 2-vCPU Xeon VM; in six runs alternated with the comparison sort it
	// replaced, the ratio was 0.58-0.72x (median 0.67x) against 2.03-2.38x
	// for pdqsort, which pays its O(n log n) case on this shape. The ceiling
	// sits about 1.8x above the radix sort's median and below every pdqsort
	// run.
	{"engine_tie_dispatch_actors", tieVsTyped(simbench.TieActors(tieGroupWidth)), "x_typed", -inf, 1.2},
	// The full telemetry layer's time cost, on over off. Five runs on a
	// 2-vCPU Xeon VM read 1.28-1.46x (median 1.33x); the ceiling is 1.15x
	// that median, rounded down.
	{"telemetry_overhead", benchTelemetryOverhead, "x_off", -inf, 1.53},
	// The audit's time cost, audited over unaudited, in a saturated
	// 16-node Baldur cell checkpointed every 0.5 us, as the fault campaign's
	// Baldur cells are: each checkpoint re-sums every NIC's unACKed packets.
	// Five runs on a 2-vCPU Xeon VM read 1.44-1.45x (median 1.45x); the
	// ceiling is 1.15x that median, rounded down. It sits below every run
	// with the unACKed set in an open-addressed hash (five read 1.93-2.01x).
	{"audit_baldur", benchAuditOverhead, "x_aud", -inf, 1.66},
	// Spans land in the preallocated flight-recorder rings, so even the
	// enabled tracer must allocate nothing per span, which bounds the
	// disabled path (one predictable branch per lifecycle site) a fortiori.
	// The slack covers runtime-internal allocations landing inside the
	// measurement window; a real leak in the per-packet trace sites would
	// show up as hundreds per op. Each of the three overhead ceilings is the
	// highest of ten runs plus one, rounded up; here the highest was 0.28.
	{"trace_overhead", benchTraceOverhead, "extra_allocs_op", -inf, 2},
	// The disabled fault path's whole budget is the one Controller
	// allocation per run plus slack for runtime-internal allocations landing
	// inside the measurement window; an allocation creeping into the
	// per-arrival fault guards would show up as hundreds per op (the cell
	// injects 192 packets) and trip the gate. The highest of ten runs was
	// 1.002.
	{"faults_overhead", benchFaultsOverhead, "extra_allocs_op", -inf, 3},
	// Non-flow packets return from the workload's delivery hook after a
	// single Flow == 0 branch, the same nil-probe discipline as the
	// telemetry and fault layers, so the differential must be zero up to
	// runtime-internal allocations landing inside the measurement window. A
	// real allocation creeping into the delivery probe would scale with the
	// cell's packet count (hundreds per op) and trip the gate. The highest
	// of ten runs was 0.004.
	{"workload_overhead", benchWorkloadOverhead, "extra_allocs_op", -inf, 2},
	// The twin's whole reason to exist is the orders-of-magnitude
	// wall-clock ratio over the packet engine, so the gate pins the claim
	// itself.
	{"twin_speedup", benchTwinSpeedup, "speedup_x", 100, inf},
	// Each network model's events per injected packet in one fixed cell,
	// gated exactly: the count is deterministic, so any change to it is a
	// change to the model's event structure and lands as a reviewed edit
	// of its row.
	eventsRow("baldur", 1, 51237, 6400),
	eventsRow("multibutterfly", 1, 173226, 6400),
	eventsRow("dragonfly", 1, 129821, 7200),
	eventsRow("fattree", 1, 118189, 5400),
	eventsRow("ideal", 1, 12800, 6400),
	// Baldur's cell again at K=2, where the fabric batches its traversals
	// into stage-interleaved walks: the batching must leave the event
	// count exactly at the serial one.
	eventsRow("baldur", 2, 51237, 6400),
	// The same cells' allocations per injected packet, construction
	// included. Every model recycles its packets and pools its events, so
	// what is left is construction, slice growth and the packets a pool
	// makes before its first reuse. Five runs read 0.3450 (baldur), 0.3382
	// (multibutterfly), 0.2191 (dragonfly), 0.2085-0.2086 (fattree) and
	// 0.0442 (ideal); before recycling the same cells read 1.04-1.30. Each
	// ceiling is 1.25x the highest run, rounded up to a hundredth: a Send
	// that allocated its packet again would add 1.0.
	allocsRow("baldur", 1, 0.44),
	allocsRow("multibutterfly", 1, 0.43),
	allocsRow("dragonfly", 1, 0.28),
	allocsRow("fattree", 1, 0.27),
	allocsRow("ideal", 1, 0.06),
	// Baldur's cell at K=2: five runs read 0.3527, the same 1.25x gives
	// the ceiling.
	allocsRow("baldur", 2, 0.45),
	// Ten runs with the 32-bit occupancy table and the intrusive VC queues
	// read 4,329-4,502 B/node (three at the 8-byte table and slice-backed
	// queues read 5,010-5,441); the ceiling is 1.15x the highest, rounded
	// down to 100 B. A return to pointer-heavy per-node state measured
	// several times higher.
	//
	// Last on purpose: peak RSS is a process-lifetime high-water mark, so
	// the 128K-node runs must come after every smaller benchmark for
	// bytes_per_node to measure them and not be measured by them.
	{"scale_datacenter", benchScaleDatacenter, "bytes_per_node", -inf, 5100},
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output file ('-' for stdout)")
	check := flag.Bool("check", false, "exit 1 unless every entry's metric lies within its range on this run")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q (-check takes no value)", flag.Args()))
	}

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
	if *check && !compare(rep, os.Stderr) {
		fmt.Fprintln(os.Stderr, "benchjson: -check failed (see the REGRESSION/FAIL lines above)")
		os.Exit(1)
	}
}

// compare prints a verdict line for every entry the run produced and
// reports whether each passed its gate. Names outside the table are
// ignored. An entry without its metric has measured nothing and FAILs; the
// one exception is a bytes_per_node <= 0, which means peak RSS is
// unavailable on the platform: a WARN.
func compare(fresh report, w io.Writer) bool {
	run := make(map[string]result, len(fresh.Benchmarks))
	for _, r := range fresh.Benchmarks {
		run[r.Name] = r
	}
	ok := true
	for _, en := range entries {
		r, produced := run[en.name]
		if !produced {
			continue
		}
		v, found := r.Extra[en.metric]
		switch {
		case !found:
			fmt.Fprintf(w, "check %-36s FAIL: no %s metric in this run\n", en.name, en.metric)
			ok = false
		case en.metric == "bytes_per_node" && v <= 0:
			fmt.Fprintf(w, "check %-36s WARN: peak RSS unavailable on this platform; not gated\n", en.name)
		default:
			fail := v < en.lo || v > en.hi
			fmt.Fprintf(w, "check %-36s %s = %g in [%g, %g] %s\n", en.name, en.metric, v, en.lo, en.hi, verdict(fail))
			ok = ok && !fail
		}
	}
	return ok
}

func verdict(fail bool) string {
	if fail {
		return "REGRESSION"
	}
	return "ok"
}

// ratioPairs is how many alternated pairs a ratio entry takes the median
// of per iteration. A pair's samples last a few milliseconds each: a burst
// of other work on a shared host then spoils a few pairs, which the median
// drops, where it would spoil most of a handful of long ones. On a 2-vCPU
// VM, five runs of 75 short pairs read x_off 1.35-1.42, five of 7 pairs of
// 0.1 s each 1.32-2.24.
const ratioPairs = 75

// dispatches is how many events each side of an engine ratio dispatches
// per sample, or operations Ref runs.
const dispatches = 1 << 16

// sink keeps Ref's checksum, so the compiler cannot drop the kernel.
var sink uint64

// dispatch returns a body dispatching n events of loop on a fresh engine.
func dispatch(loop simbench.Loop, n int) func() {
	return func() {
		e := sim.NewEngine()
		loop(e, n)
		e.Run()
	}
}

// benchTypedVsRef reports x_ref: the plain dispatch loop's time per
// dispatch over the reference kernel's time per operation, alternated in
// one process. The typed loop is the event kernel's hot path, and the
// kernel is code no change to the simulator touches, so a simulator change
// moves the ratio only through the engine. The host moves it too: on a
// busy host the typed loop slows more than the kernel.
func benchTypedVsRef(b *testing.B) {
	x, typed, ref := simbench.Ratio(ratioPairs*b.N, dispatch(simbench.Typed, dispatches), func() { sink = simbench.Ref(dispatches) })
	b.ReportMetric(x, "x_ref")
	b.ReportMetric(float64(typed)/dispatches, "typed_ns")
	b.ReportMetric(float64(ref)/dispatches, "ref_ns")
}

// tieVsTyped returns a body reporting x_typed: loop's time per dispatch
// over the plain dispatch loop's, alternated in one process.
func tieVsTyped(loop simbench.Loop) func(b *testing.B) {
	return func(b *testing.B) {
		x, tie, typed := simbench.Ratio(ratioPairs*b.N, dispatch(loop, dispatches), dispatch(simbench.Typed, dispatches))
		b.ReportMetric(x, "x_typed")
		b.ReportMetric(float64(tie)/dispatches, "tie_ns")
		b.ReportMetric(float64(typed)/dispatches, "typed_ns")
	}
}

func benchScale() exp.Scale {
	sc := exp.Quick
	sc.PacketsPerNode = 60
	return sc
}

// benchTelemetryOverhead reports x_off: the root BenchmarkBaldurSimulator's
// workload with the full telemetry layer enabled (counters, gauges and the
// flight recorder; no file export) over the same cell with telemetry off,
// where probes stay nil, alternated in one process: the full on/off cost
// of the observability layer.
func benchTelemetryOverhead(b *testing.B) {
	cell := func(on bool) func() {
		return func() {
			sc := benchScale()
			if on {
				// Fresh Options per run: the harness treats them as per-run state.
				sc.Telemetry = &telemetry.Options{}
			}
			if _, err := exp.RunOpenLoopDetail("baldur", "random_permutation", 0.7, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
	x, on, off := simbench.Ratio(ratioPairs*b.N, cell(true), cell(false))
	b.ReportMetric(x, "x_off")
	b.ReportMetric(float64(on.Microseconds()), "on_us")
	b.ReportMetric(float64(off.Microseconds()), "off_us")
}

// benchAuditOverhead reports x_aud: a saturated 16-node Baldur cell (the
// hotspot pattern, whose drops and retransmissions keep every NIC's unACKed
// window wide) with the invariant audit attached and a checkpoint every
// 0.5 us, over the same cell unaudited, alternated in one process: the
// audit's whole cost, barrier slicing included.
func benchAuditOverhead(b *testing.B) {
	cell := func(audit bool) func() {
		return func() {
			sc := exp.Quick
			sc.Nodes = 16
			sc.PacketsPerNode = 200
			if audit {
				sc.Audit = &check.Options{Interval: 500 * sim.Nanosecond}
			}
			if _, err := exp.RunOpenLoopDetail("baldur", "hotspot", 0.5, sc); err != nil {
				b.Fatal(err)
			}
		}
	}
	x, on, off := simbench.Ratio(ratioPairs*b.N, cell(true), cell(false))
	b.ReportMetric(x, "x_aud")
	b.ReportMetric(float64(on.Microseconds()), "on_us")
	b.ReportMetric(float64(off.Microseconds()), "off_us")
}

// quickCell runs network's Quick random_permutation cell at load 0.5 on
// shards shards (1: serial), the cell of the events_<net> and allocs_<net>
// rows.
func quickCell(b *testing.B, network string, shards int) exp.OpenLoopDetail {
	sc := exp.Quick
	sc.Shards = shards
	d, err := exp.RunOpenLoopDetail(network, "random_permutation", 0.5, sc)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// cellName names a row's cell: the network, suffixed _k<K> when sharded.
func cellName(network string, shards int) string {
	if shards > 1 {
		return fmt.Sprintf("%s_k%d", network, shards)
	}
	return network
}

// eventsRow is the entry gating network's events per injected packet in
// its quickCell at exactly events/injected. The count is the same at any
// shard count.
func eventsRow(network string, shards int, events, injected float64) entry {
	body := func(b *testing.B) {
		var ev, inj uint64
		for range b.N {
			d := quickCell(b, network, shards)
			ev += d.Events
			inj += d.Injected
		}
		b.ReportMetric(float64(ev)/float64(inj), "events_per_pkt")
		b.ReportMetric(float64(ev)/float64(b.N), "events/run")
		b.ReportMetric(float64(inj)/float64(b.N), "injected/run")
	}
	x := events / injected
	return entry{"events_" + cellName(network, shards), body, "events_per_pkt", x, x}
}

// allocsRow is the entry gating network's heap allocations per injected
// packet in its quickCell, construction included, at or below ceiling.
func allocsRow(network string, shards int, ceiling float64) entry {
	body := func(b *testing.B) {
		var before, after runtime.MemStats
		var inj uint64
		runtime.ReadMemStats(&before)
		for range b.N {
			inj += quickCell(b, network, shards).Injected
		}
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(inj), "allocs_per_pkt")
	}
	return entry{"allocs_" + cellName(network, shards), body, "allocs_per_pkt", -inf, ceiling}
}

// benchTraceOverhead prices the packet-lifecycle tracer the way
// benchFaultsOverhead prices the fault layer: the same telemetry-attached
// baldur cell runs b.N times with span capture off and b.N times tracing
// 1 in 2 packets, and the allocation difference per run is reported as
// extra_allocs_op. Both sides preallocate identical flight-recorder rings,
// so the differential isolates the per-packet trace sites; spans are written
// in place into the rings and must not allocate even when sampled. -check
// gates extra_allocs_op against its ceiling, pinning the claim that a
// trace-capable build costs untraced runs nothing on the allocation side.
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
// extra_allocs_op against its ceiling.
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
	b.ReportMetric(simbench.Median(speedup), "speedup_x")
	b.ReportMetric(slices.Min(speedup), "speedup_x_min")
	b.ReportMetric(slices.Max(speedup), "speedup_x_max")
	b.ReportMetric(simbench.Median(packetMS), "packet_wall_ms")
	b.ReportMetric(simbench.Median(twinMS), "twin_wall_ms")
}

// benchScaleDatacenter runs the 128K-node memory-diet preset end to end —
// one 131,072-node Baldur run and one 128,000-host fat-tree run per
// iteration — and reports throughput plus the process's peak RSS read after
// both complete. bytes_per_node divides that peak by the Baldur node count
// (the larger denominator of the two would flatter the number; the preset's
// nominal scale is the honest one). -check gates bytes_per_node against its
// ceiling.
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
