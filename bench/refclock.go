package main

import "time"

// The host a benchmark runs on may share its cores with other tenants, and
// its speed then drifts by tens of percent over seconds to minutes, which
// no amount of repetition inside one run removes. The benchmark therefore
// times a fixed reference kernel at short intervals throughout each pass,
// with the pass's clock stopped, and reports host time in reference
// seconds: measured seconds × refNominalNS / the pass's mean reference time
// per operation. A pass that ran while the host was a third slower reads
// about the same as one that ran on a quiet host; a simulator that does its
// work in less time reads lower, since the reference kernel is the
// benchmark's own code and no change to the simulator changes it.

// refNominalNS is the reference kernel's time per operation on a quiet
// development host (2-vCPU Intel Xeon at 2.1 GHz), which makes a reference
// second close to a second there.
const refNominalNS = 50.0

// refEvery is the pass time between two reference samples and refOps the
// operations of one sample (1 to 1.5 ms); together they add about 5% to a
// pass's host time, none of which enters its metrics.
const (
	refEvery = 25 * time.Millisecond
	refOps   = 20_000
)

// refClock samples the reference kernel: a hold-model loop on a 4-ary
// min-heap of 4,096 timestamps, each operation replacing the earliest one
// with a later one, which is the access pattern of an event kernel. Every
// sample starts from the same heap and draws the same increments, so every
// sample does the same work.
type refClock struct {
	start, heap []uint64
	next        time.Time
	ns          []float64 // time per operation, one entry per sample
}

func newRefClock() *refClock {
	r := &refClock{start: make([]uint64, 4096), heap: make([]uint64, 4096)}
	for i := range r.start {
		r.start[i] = uint64(i) << 20
	}
	return r
}

// due reports whether refEvery has passed since the last sample.
func (r *refClock) due() bool { return !time.Now().Before(r.next) }

// sample times refOps operations of the kernel.
func (r *refClock) sample() {
	t0 := time.Now()
	h := r.heap
	copy(h, r.start)
	x := uint64(1)
	for k := 0; k < refOps; k++ {
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
	now := time.Now()
	r.ns = append(r.ns, float64(now.Sub(t0).Nanoseconds())/refOps)
	r.next = now.Add(refEvery)
}

// nsPerOp is the mean time per operation over the samples taken. Samples
// are evenly spaced in pass time, and the pass pays the host's mean
// slowdown, outliers included.
func (r *refClock) nsPerOp() float64 {
	var sum float64
	for _, ns := range r.ns {
		sum += ns
	}
	return ratio(sum, float64(len(r.ns)))
}
