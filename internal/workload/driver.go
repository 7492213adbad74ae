package workload

import (
	"fmt"
	"math"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/stats"
	"baldur/internal/workload/admission"
	"baldur/internal/workload/routing"
)

// Driver runs one workload spec against one network: per-(tenant, source)
// injectors sample arrivals and sizes, admission/routing policies shape the
// offered load, flows packetize onto Network.Send, and flow completions are
// accounted on the destination shard. Build with New, wire with Attach
// before the run starts, read TenantSLOs after it drains.
//
// State is strictly shard-partitioned: an injector and its policies live on
// the source node's shard; completion accounting lives on the destination
// node's shard (all of a flow's packets share one (src, dst) pair, so every
// delivery of a flow lands on the same shard). Nothing is locked, and every
// fold over shards runs in fixed ascending order — the SLO report is
// bit-identical for any shard count.
//
// Memory is O(nodes × tenants) for the injectors plus O(in-flight flows)
// for progress tracking; the layer targets Table-VI-scale studies (up to a
// few thousand nodes), not the datacenter memory-diet preset.
type Driver struct {
	spec     Spec // resolved copy; the caller's Spec is never mutated
	net      netsim.Network
	nodes    int
	psize    int
	linkRate float64      // bits per second
	gap      sim.Duration // per-packet pacing interval at linkRate
	deadline sim.Time     // arrival-window close
	exactCap int          // per-tenant exact-FCT retention (0 = bucketed only)

	perShard []shardAcc
}

// shardAcc is one shard's slice of the accounting, padded like the
// collector's so neighbouring shards' hot counters do not share a line.
type shardAcc struct {
	tenants []tenantAcc
	flows   map[uint64]flowProg // in-flight flows destined to this shard
	_       [32]byte
}

// tenantAcc is one (shard, tenant) ledger. Counters are folded by addition
// (order-free); the FCT histogram folds through stats.Histogram.Merge whose
// quantiles are merge-order invariant.
type tenantAcc struct {
	arrived, admitted, rejected uint64
	admittedBytes               uint64
	admittedPackets             uint64
	completed                   uint64
	completedBytes              uint64
	fct                         stats.Histogram // flow-completion time, ns
	last                        sim.Time        // latest flow completion
}

// flowProg tracks one in-flight flow's delivery progress on its
// destination shard. All fields come from packet headers, never from
// source-shard state.
type flowProg struct {
	seen, total int32
	tenant      int32 // 1-based, as carried in packets
	bytes       int64
	created     sim.Time // earliest packet creation = flow arrival
}

// New validates the spec and builds an unattached driver.
func New(spec Spec) (*Driver, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := spec.resolved()
	d := &Driver{
		spec:     r,
		psize:    r.PacketSize,
		linkRate: r.LinkRateGbps * 1e9,
		deadline: sim.Time(0).Add(sim.Microseconds(r.DurationUS)),
	}
	d.gap = sim.SerializationTime(d.psize, d.linkRate)
	if r.ExactFCTCap > 0 {
		d.exactCap = r.ExactFCTCap
	}
	return d, nil
}

// Spec returns the resolved spec the driver runs (defaults filled in).
func (d *Driver) Spec() Spec { return d.spec }

// Attach wires the driver to a network: builds every policy, registers
// the completion callback, and schedules the first arrival of every
// (tenant, source) injector. Call exactly once, before the run starts.
func (d *Driver) Attach(net netsim.Network) error {
	if d.net != nil {
		return fmt.Errorf("workload: driver for spec %q already attached", d.spec.Name)
	}
	nodes := net.NumNodes()
	if nodes < 2 {
		return fmt.Errorf("workload: network has %d nodes; flows need at least 2", nodes)
	}
	d.net = net
	d.nodes = nodes
	d.perShard = make([]shardAcc, net.NumShards())
	for s := range d.perShard {
		sh := &d.perShard[s]
		sh.tenants = make([]tenantAcc, len(d.spec.Tenants))
		if d.exactCap > 0 {
			for t := range sh.tenants {
				sh.tenants[t].fct.SetExactCap(d.exactCap)
			}
		}
		sh.flows = make(map[uint64]flowProg)
	}
	// One routing policy per tenant, immutable and shared across shards.
	routes := make([]routing.Policy, len(d.spec.Tenants))
	for t, ts := range d.spec.Tenants {
		rp, err := routing.New(ts.Routing.Policy, ts.Routing.Params, nodes, d.spec.Seed^mix(uint64(t)+1))
		if err != nil {
			return fmt.Errorf("workload: tenant %q: %w", ts.Name, err)
		}
		routes[t] = rp
	}
	net.OnDeliver(d.onDeliver)
	for t, ts := range d.spec.Tenants {
		// Tenant streams are decorrelated by mixing the tenant index into
		// the seed before the per-source fork — the same discipline
		// traffic.OpenLoop uses per source, one level up.
		tseed := d.spec.Seed ^ mix(uint64(t)+1)
		for src := 0; src < nodes; src++ {
			ap, err := admission.New(ts.Admission.Policy, ts.Admission.Params, nodes, d.linkRate)
			if err != nil {
				return fmt.Errorf("workload: tenant %q: %w", ts.Name, err)
			}
			in := &injector{
				d:      d,
				src:    src,
				tenant: int32(t),
				shard:  int32(net.NodeShard(src)),
				arr:    newArrival(ts.Arrival),
				size:   newSizeSampler(ts.Size),
				admit:  ap,
				route:  routes[t],
				limit:  uint64(d.spec.MaxFlowsPerSource),
				rng:    sim.NewRNG(tseed).Fork(uint64(src) + 1),
			}
			if first := in.arr.Next(0, d.deadline, in.rng); first <= d.deadline {
				net.ScheduleNode(src, first, in)
			}
		}
	}
	return nil
}

// mix is a splitmix-style avalanche so tenant-derived seeds decorrelate
// even for adjacent tenant indices.
func mix(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return x
}

// maxTenants and maxFlowsPerSource are what flowID's tenant and sequence
// fields hold; Spec.Validate refuses a spec beyond either.
const (
	maxTenants        = 256
	maxFlowsPerSource = math.MaxUint32
)

// flowID packs (tenant, src, per-source sequence) into a globally unique,
// shard-count-independent id: one byte of tenant, 24 bits of source and 32
// of sequence. Nonzero by construction (seq starts at 1).
func flowID(tenant int32, src int, seq uint64) uint64 {
	return (uint64(tenant)+1)<<56 | (uint64(src)+1)<<32 | (seq & 0xffffffff)
}

// injector is one (tenant, source) arrival process. It runs on the source
// node's shard and owns its RNG stream, arrival process, size sampler and
// admission policy — all mutation is shard-local.
type injector struct {
	d      *Driver
	src    int
	tenant int32
	shard  int32
	seq    uint64
	limit  uint64
	arr    arrivalProc
	size   sizeSampler
	admit  admission.Policy
	route  routing.Policy
	rng    *sim.RNG
}

func (in *injector) Run(e *sim.Engine) {
	d := in.d
	now := e.Now()
	in.seq++
	id := flowID(in.tenant, in.src, in.seq)
	// Draw order per flow is fixed: size, destination, then admission.
	bytes := in.size.Sample(in.rng)
	packets := (bytes + int64(d.psize) - 1) / int64(d.psize)
	dst := in.route.Dest(in.src, in.rng)
	if dst < 0 || dst >= d.nodes || dst == in.src {
		panic(fmt.Sprintf("workload: routing policy returned invalid destination %d (flow %#x, src %d, %d nodes)",
			dst, id, in.src, d.nodes))
	}
	acc := &d.perShard[in.shard].tenants[in.tenant]
	acc.arrived++
	if in.admit.Admit(bytes, now) {
		acc.admitted++
		acc.admittedBytes += uint64(bytes)
		acc.admittedPackets += uint64(packets)
		fs := &flowSender{
			d: d, src: in.src, dst: dst, id: id,
			tenant: in.tenant + 1, total: int32(packets),
			bytesLeft: bytes,
		}
		fs.Run(e)
	} else {
		acc.rejected++
	}
	if in.seq >= in.limit {
		return
	}
	if next := in.arr.Next(now, d.deadline, in.rng); next <= d.deadline {
		d.net.ScheduleNode(in.src, next, in)
	}
}

// flowSender packetizes one admitted flow: the first packet goes out at the
// arrival instant, subsequent packets pace at the link serialization time
// of a full packet (the same per-node injection discipline the open-loop
// driver models, applied back-to-back within a flow).
type flowSender struct {
	d         *Driver
	src, dst  int
	id        uint64
	tenant    int32 // 1-based, as carried in packets
	total     int32
	sent      int32
	bytesLeft int64
}

func (fs *flowSender) Run(e *sim.Engine) {
	d := fs.d
	size := int64(d.psize)
	if fs.bytesLeft < size {
		size = fs.bytesLeft
	}
	p := d.net.Send(fs.src, fs.dst, int(size))
	p.Flow = fs.id
	p.FlowPackets = fs.total
	p.Tenant = fs.tenant
	fs.bytesLeft -= size
	fs.sent++
	if fs.sent < fs.total {
		d.net.ScheduleNode(fs.src, e.Now().Add(d.gap), fs)
	}
}

// onDeliver accounts one delivered packet on the destination shard. The
// nil-probe discipline of the telemetry/faults layers applies: packets that
// are not flow traffic (Flow == 0) return after one branch.
func (d *Driver) onDeliver(shard int, p *netsim.Packet, at sim.Time) {
	if p.Flow == 0 {
		return
	}
	sh := &d.perShard[shard]
	fp, ok := sh.flows[p.Flow]
	if !ok {
		fp = flowProg{total: p.FlowPackets, tenant: p.Tenant, created: p.Created}
	}
	fp.seen++
	fp.bytes += int64(p.Size)
	if p.Created < fp.created {
		fp.created = p.Created
	}
	if fp.seen < fp.total {
		sh.flows[p.Flow] = fp
		return
	}
	delete(sh.flows, p.Flow)
	acc := &sh.tenants[fp.tenant-1]
	acc.completed++
	acc.completedBytes += uint64(fp.bytes)
	// The first packet is created at the flow's arrival instant, so the
	// earliest Created seen is exactly the arrival: FCT = at − arrival.
	acc.fct.Add(at.Sub(fp.created).Nanoseconds())
	if at > acc.last {
		acc.last = at
	}
}

// TenantSLO is one tenant's service-level report. Quantiles and max fold
// shard-count-invariantly (exact rank order under the sample cap, integer
// log-buckets beyond it); a folded FCT *mean* is deliberately absent —
// Running.Merge means vary with merge grouping, so reporting one would
// break the bit-identity contract.
type TenantSLO struct {
	Tenant string

	Arrived    uint64
	Admitted   uint64
	Rejected   uint64
	Completed  uint64
	RejectRate float64 // rejected / arrived

	AdmittedBytes   uint64
	AdmittedPackets uint64
	CompletedBytes  uint64

	// Flow-completion-time quantiles in nanoseconds over completed flows.
	FCTp50NS  float64
	FCTp99NS  float64
	FCTp999NS float64
	FCTMaxNS  float64
	// ExactQuantiles reports whether the quantiles above are exact rank
	// statistics (completions ≤ the spec's exact_fct_cap) or log-bucket
	// estimates with relative error ≤ stats.MaxQuantileRelError.
	ExactQuantiles bool

	// GoodputGbps is completed payload over the span from t=0 to the
	// tenant's last flow completion.
	GoodputGbps float64
}

// TenantSLOs folds the per-shard ledgers into one report row per tenant, in
// spec order, shards ascending — the fixed fold order that makes the report
// bit-identical for any shard count.
func (d *Driver) TenantSLOs() []TenantSLO {
	out := make([]TenantSLO, len(d.spec.Tenants))
	var merged stats.Histogram
	if d.exactCap > 0 {
		merged.SetExactCap(d.exactCap)
	}
	for t := range out {
		s := &out[t]
		s.Tenant = d.spec.Tenants[t].Name
		merged.Reset()
		var last sim.Time
		for i := range d.perShard {
			a := &d.perShard[i].tenants[t]
			s.Arrived += a.arrived
			s.Admitted += a.admitted
			s.Rejected += a.rejected
			s.Completed += a.completed
			s.AdmittedBytes += a.admittedBytes
			s.AdmittedPackets += a.admittedPackets
			s.CompletedBytes += a.completedBytes
			merged.Merge(&a.fct)
			if a.last > last {
				last = a.last
			}
		}
		if s.Arrived > 0 {
			s.RejectRate = float64(s.Rejected) / float64(s.Arrived)
		}
		s.FCTp50NS = merged.Quantile(0.5)
		s.FCTp99NS = merged.Quantile(0.99)
		s.FCTp999NS = merged.Quantile(0.999)
		s.FCTMaxNS = merged.Max()
		s.ExactQuantiles = merged.QuantilesExact()
		if last > 0 {
			s.GoodputGbps = float64(s.CompletedBytes) * 8 / sim.Duration(last).Seconds() / 1e9
		}
	}
	return out
}

// Totals sums the tenant ledgers across shards: arrived == admitted +
// rejected always, and admitted packets equals the network's injected-
// packet count when the driver is the network's only traffic source — the
// reconciliation the conservation tests pin against the check ledger.
func (d *Driver) Totals() (arrived, admitted, rejected, admittedPackets uint64) {
	for i := range d.perShard {
		for t := range d.perShard[i].tenants {
			a := &d.perShard[i].tenants[t]
			arrived += a.arrived
			admitted += a.admitted
			rejected += a.rejected
			admittedPackets += a.admittedPackets
		}
	}
	return
}

// IncompleteFlows counts flows with at least one delivered packet that
// never completed (packets lost to faults or the safety horizon).
func (d *Driver) IncompleteFlows() int {
	n := 0
	for i := range d.perShard {
		n += len(d.perShard[i].flows)
	}
	return n
}
