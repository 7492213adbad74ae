// Package twin is the analytical (flow-level) model tier of the simulator:
// for the networks in Networks it answers the same open-loop (pattern, load)
// questions the packet-level engine answers — average and p99 latency, drop
// rate, throughput — in microseconds instead of seconds, by computing
// per-link offered loads from the traffic matrix and applying queueing
// approximations. For Baldur the model couples per-wire-group loss
// probabilities (finite-source Engset) with a retransmission-expectation
// fixed point; for the electrical baselines it applies link-level waiting
// formulas along each flow's route. The packet engine is the calibrator:
// internal/check/calib runs twin-vs-packet on a pinned grid and gates the
// recorded per-metric error (BENCH_twin.json).
package twin

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// Networks lists the networks the twin models, in the paper's order. It is
// the one place that knows which networks have a model: the experiment
// harness answers every other network's twin-tier cell on the packet
// engine, and the calibration grid covers exactly these. The dragonfly has
// no model — its UGAL routing couples path choice to queue occupancy, and
// no flow-level fixed point stayed inside the calibration bounds.
var Networks = []string{"baldur", "multibutterfly", "fattree", "ideal"}

// Config sizes the modelled networks. The fields mirror exp.Scale so the
// twin answers exactly the cells the packet engine runs.
type Config struct {
	// Nodes is the Baldur / electrical multi-butterfly node count.
	Nodes int
	// PacketsPerNode is the open-loop injection count per transmitting
	// node (finite-run effects: transient backlog, injection makespan).
	PacketsPerNode int
	// FatTreeK is the fat-tree radix.
	FatTreeK int
	// Seed drives the topology randomization (Baldur/MB wiring) and the
	// injection replay, mirroring the packet engine's seed so twin runs
	// are reproducible the same way.
	Seed uint64
}

// Point is one analytical measurement of a (network, pattern, load) cell.
type Point struct {
	AvgNS         float64
	TailNS        float64
	DropRate      float64 // in-fabric data-attempt drop fraction (Baldur)
	ThroughputPPS float64 // delivered packets per second of wall (virtual) time
	RetxAmp       float64 // mean transmission attempts per packet (Baldur; 1 otherwise)
	// Saturated marks cells where some queue's offered load exceeds its
	// capacity: the open-loop run has no steady state and latency grows
	// with the run length instead of converging.
	Saturated bool
	// MakespanS is the modelled virtual time (seconds) from t=0 to the
	// last delivery — the same quantity the packet engine's collector
	// reports as LastDelivery, and the denominator of ThroughputPPS.
	MakespanS float64
}

// NumNodes returns the node count of a network at this configuration — the
// same counts the packet engine's builders produce, so patterns generated
// for one tier fit the other exactly.
func NumNodes(network string, cfg Config) (int, error) {
	switch network {
	case "baldur", "multibutterfly", "ideal":
		return cfg.Nodes, nil
	case "fattree":
		k := cfg.FatTreeK
		if k == 0 {
			k = 16
		}
		return elecnet.FatTreeNodes(k), nil
	}
	return 0, errNoModel(network)
}

func errNoModel(network string) error {
	return fmt.Errorf("twin: no model for network %q (modelled: %v); run it on the packet tier", network, Networks)
}

// EvalOpenLoop evaluates one open-loop cell analytically. The pattern must
// be sized for the network (use NumNodes + the same generators the packet
// path uses).
func EvalOpenLoop(network string, pat *traffic.Pattern, load float64, cfg Config) (Point, error) {
	if load <= 0 {
		return Point{}, fmt.Errorf("twin: load %g <= 0", load)
	}
	if cfg.PacketsPerNode <= 0 {
		return Point{}, fmt.Errorf("twin: packets per node %d <= 0", cfg.PacketsPerNode)
	}
	nodes, err := NumNodes(network, cfg)
	if err != nil {
		return Point{}, err
	}
	if pat.Nodes() != nodes {
		return Point{}, fmt.Errorf("twin: pattern sized for %d nodes, network has %d", pat.Nodes(), nodes)
	}
	switch network {
	case "baldur":
		return evalBaldur(pat, load, cfg)
	case "multibutterfly":
		return evalMB(pat, load, cfg)
	case "fattree":
		return evalFatTree(pat, load, cfg)
	case "ideal":
		return evalIdeal(pat, load, cfg)
	}
	return Point{}, errNoModel(network)
}

// workloadSeedOffset is the offset the experiment harness adds to the base
// seed for the open-loop injector streams (exp keeps pattern, topology and
// workload streams disjoint). The twin replays the same streams.
const workloadSeedOffset = 100

// flow is one (src, dst) pair of the traffic matrix with its offered packet
// rate in packets per second and the exact time of its last injection.
type flow struct {
	src, dst int
	rate     float64
	injSpan  float64 // seconds from t=0 to the source's last injection
}

// openFlows extracts the transmitting flows and the exact per-source mean
// inter-arrival time (seconds) the open-loop injector uses. The injection
// process is exogenous — each source draws from its own RNG stream
// regardless of network state — so the twin replays the draws and knows
// every source's last injection time exactly, not via a max-of-Gamma
// approximation. This is nTx*ppn scalar draws, still thousands of times
// cheaper than simulating the packets.
func openFlows(pat *traffic.Pattern, load float64, cfg Config) (fl []flow, interval float64) {
	mean := traffic.MeanInterval(netsim.PacketSize, load, netsim.LineRate)
	interval = mean.Seconds()
	rate := 1 / interval
	// Replaying each source's injection draws is the twin's only
	// O(total-packets) cost, and every source reads its own forked RNG
	// stream — so the replay fans out across cores. Spans land positionally
	// and the flow list is assembled in source order afterwards, keeping
	// every downstream number bit-identical to a serial replay.
	spans := make([]float64, len(pat.Dest))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pat.Dest) {
		workers = len(pat.Dest)
	}
	chunk := (len(pat.Dest) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(pat.Dest) {
			hi = len(pat.Dest)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for src := lo; src < hi; src++ {
				if pat.Dest[src] == -1 {
					continue
				}
				rng := sim.NewRNG(cfg.Seed + workloadSeedOffset).Fork(uint64(src) + 1)
				var t sim.Time
				for k := 0; k < cfg.PacketsPerNode; k++ {
					t = t.Add(rng.ExpDuration(mean))
				}
				spans[src] = sim.Duration(t).Seconds()
			}
		}(lo, hi)
	}
	wg.Wait()
	for src, dst := range pat.Dest {
		if dst == -1 {
			continue
		}
		fl = append(fl, flow{src: src, dst: dst, rate: rate, injSpan: spans[src]})
	}
	return fl, interval
}

// atom is one probability mass of extra deterministic delay on top of a
// flow's base latency (retransmission rounds).
type atom struct {
	mass  float64
	extra float64 // seconds
}

// flowLat is one flow's latency distribution in the twin's canonical form:
// deterministic base, mean queueing wait with an exponential-tail
// approximation (P(wait > t) = pb * exp(-t/theta), theta = w/pb scaled to
// match the mean), plus optional retransmission atoms.
type flowLat struct {
	weight  float64 // relative packet mass (0 means 1)
	base    float64 // seconds
	w       float64 // mean total queueing wait, seconds
	theta   float64 // tail decay constant; 0 derives w/pb
	pb      float64 // probability of non-zero wait
	atoms   []atom  // nil means a single unit atom at extra 0
	injSpan float64 // source's last injection time (seconds from t=0)
	endW    float64 // extra end-of-run backlog drain beyond the mean wait
}

func (f *flowLat) wt() float64 {
	if f.weight == 0 {
		return 1
	}
	return f.weight
}

func (f *flowLat) mean() float64 {
	m := f.base + f.w
	for _, a := range f.atoms {
		m += a.mass * a.extra
	}
	return m
}

// tailAt returns P(latency > x) under the exponential-tail approximation.
func (f *flowLat) tailAt(x float64) float64 {
	theta := f.theta
	pb := f.pb
	if theta <= 0 {
		if pb > 0 && f.w > 0 {
			theta = f.w / pb
		} else {
			theta = 0
		}
	} else if pb <= 0 && f.w > 0 {
		pb = math.Min(1, f.w/theta)
	}
	waitTail := func(t float64) float64 {
		if t < 0 {
			return 1
		}
		if theta <= 0 || pb <= 0 {
			return 0
		}
		return pb * math.Exp(-t/theta)
	}
	if len(f.atoms) == 0 {
		return waitTail(x - f.base)
	}
	var s float64
	for _, a := range f.atoms {
		s += a.mass * waitTail(x-f.base-a.extra)
	}
	return s
}

// mixtureQuantile solves for the q-quantile of the weighted mixture of the
// flows' latency distributions by bisection on the survival function.
func mixtureQuantile(fl []flowLat, q float64) float64 {
	if len(fl) == 0 {
		return 0
	}
	target := 1 - q
	var wsum float64
	for i := range fl {
		wsum += fl[i].wt()
	}
	surv := func(x float64) float64 {
		var s float64
		for i := range fl {
			s += fl[i].wt() * fl[i].tailAt(x)
		}
		return s / wsum
	}
	// Bracket: the largest base+extra plus a generous multiple of the
	// largest decay constant.
	var hi float64
	for i := range fl {
		f := &fl[i]
		top := f.base
		for _, a := range f.atoms {
			if f.base+a.extra > top {
				top = f.base + a.extra
			}
		}
		theta := f.theta
		if theta <= 0 && f.pb > 0 {
			theta = f.w / f.pb
		}
		if v := top + 64*theta; v > hi {
			hi = v
		}
	}
	if surv(hi) > target {
		// Extremely heavy tail; extend geometrically (bounded).
		for i := 0; i < 32 && surv(hi) > target; i++ {
			hi *= 2
		}
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if surv(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// assemble folds per-flow distributions into a Point. nTx is the number of
// transmitting nodes (distributions may be split into several weighted
// entries per flow); rhoMax is the highest utilization of any queue in the
// system (drives saturation classification and the rate-limited
// throughput); interval is the per-source mean inter-arrival (seconds).
func assemble(fl []flowLat, nTx int, interval float64, cfg Config, rhoMax float64, saturated bool) Point {
	var p Point
	if len(fl) == 0 || nTx == 0 {
		return p
	}
	var avg, wsum float64
	for i := range fl {
		avg += fl[i].wt() * fl[i].mean()
		wsum += fl[i].wt()
	}
	avg /= wsum
	p.AvgNS = avg * 1e9
	p.TailNS = mixtureQuantile(fl, 0.99) * 1e9
	p.RetxAmp = 1

	// Throughput: total packets over the makespan. Each flow's last
	// injection time is replayed exactly from the injector's RNG stream;
	// the last packet then takes one typical latency, and overloaded flows
	// add the end-of-run backlog drain (endW: the final backlog is twice
	// the run-average transient wait).
	ppn := float64(cfg.PacketsPerNode)
	var mk float64
	for i := range fl {
		if v := fl[i].injSpan + fl[i].mean() + fl[i].endW; v > mk {
			mk = v
		}
	}
	p.MakespanS = mk
	if mk > 0 {
		p.ThroughputPPS = float64(nTx) * ppn / mk
	}
	p.Saturated = saturated || rhoMax >= 1
	return p
}

// transientWait returns the extra average wait of a finite open-loop run
// through a queue with offered utilization rho > 1: the backlog grows
// linearly for the whole injection window (ppn*interval), so the average
// packet waits half the final backlog drain time.
func transientWait(rho, interval float64, ppn int) float64 {
	if rho <= 1 {
		return 0
	}
	return (rho - 1) * interval * float64(ppn) / 2
}

// pathAcc accumulates one flow's route through queueing stations into a
// flowLat: mean waits add, the slowest tail decay dominates, and the worst
// utilization decides whether the finite run is in transient overload.
type pathAcc struct {
	base     float64
	T        float64 // injection window (seconds); tempers steady waits
	w        float64
	tr       float64 // mass-weighted transient-overload wait (inside w too)
	thetaMax float64
	rhoWorst float64
}

// add records one station visit: mean wait w at utilization rho with tail
// decay theta, weighted by the fraction of the flow's packets passing it.
// Steady-state waits are tempered by the finite injection window; the tail
// decay tempers by the same ratio — a run too short to reach the
// steady-state mean is equally short of the asymptotic exponential tail.
func (pa *pathAcc) add(w, rho, theta, mass float64) {
	if pa.T > 0 && w > 0 {
		wt := finiteWait(w, rho, pa.T)
		theta *= wt / w
		w = wt
	}
	pa.w += mass * w
	if mass > 1e-9 {
		if theta > pa.thetaMax {
			pa.thetaMax = theta
		}
		if rho > pa.rhoWorst {
			pa.rhoWorst = rho
		}
	}
}

// overload records the transient backlog of one routed path whose bottleneck
// station runs at utilization rho. The transient accrues once per path at
// its worst hop, not per hop: an upstream bottleneck meters the flow, so
// downstream over-capacity stations never see more than the metered rate.
func (pa *pathAcc) overload(rho, mass float64) {
	if rho > 1 && pa.T > 0 {
		tr := (rho - 1) * pa.T / 2
		pa.w += mass * tr
		pa.tr += mass * tr
	}
}

// finalize converts the accumulated route into a flowLat. Returns the
// distribution and whether the flow saturates (some visited station is
// beyond capacity, so its wait grows with the run instead of converging).
// Single-path models need not call overload: the bottleneck transient is
// derived from the worst visited station when none was recorded.
func (pa *pathAcc) finalize(interval float64, ppn int) (flowLat, bool) {
	if pa.rhoWorst > 1 {
		if pa.tr == 0 {
			pa.overload(pa.rhoWorst, 1)
		}
		// The transient backlog grows roughly linearly, so waits spread
		// near-uniformly over [0, 2*tr]: the tail is far lighter than an
		// exponential with the same mean (theta ~ tr/2 puts the p99 at
		// about twice the mean transient, matching the uniform ramp).
		theta := math.Max(pa.thetaMax, pa.tr/2)
		return flowLat{base: pa.base, w: pa.w, theta: theta, pb: 1, endW: pa.tr}, true
	}
	f := flowLat{base: pa.base, w: pa.w, theta: pa.thetaMax}
	if f.theta > 0 {
		f.pb = math.Min(1, f.w/f.theta)
	} else if f.w > 0 {
		f.theta, f.pb = f.w, 1
	}
	return f, false
}
