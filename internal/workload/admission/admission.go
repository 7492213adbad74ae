// Package admission holds the workload layer's admission policies:
// "always" (admit everything), "reject_all" (admit nothing — accounting and
// reconciliation tests) and "token_bucket" (per-source share of a
// tenant-aggregate byte budget).
package admission

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"baldur/internal/sim"
)

// Policy decides, at flow arrival, whether a flow enters the network. One
// instance serves one (tenant, source) pair and is only ever called from
// that source node's shard, so it may keep mutable state (token buckets,
// counters) without synchronization. Admit must be deterministic: a
// function of its arguments and prior Admit calls on the same instance.
type Policy interface {
	Admit(bytes int64, arrival sim.Time) bool
}

// New builds the named policy for one source of a tenant whose flows leave
// sources sources, on links of linkRate bits per second. It is the one
// place the policy names and their parameters are known: it refuses an
// unknown name (listing the known ones), a parameter the policy does not
// read, and a negative one.
func New(name string, p map[string]float64, sources int, linkRate float64) (Policy, error) {
	switch name {
	case "always":
		return admitAll{}, reads(name, p)
	case "reject_all":
		return rejectAll{}, reads(name, p)
	case "token_bucket":
		// rate_gbps is the tenant-aggregate refill rate in Gbit/s, split
		// evenly across sources (default: 10% of the link rate); burst_kb
		// the per-source bucket depth in kilobytes (default 64).
		if err := reads(name, p, "rate_gbps", "burst_kb"); err != nil {
			return nil, err
		}
		for _, k := range []string{"rate_gbps", "burst_kb"} {
			if p[k] < 0 {
				return nil, fmt.Errorf("token_bucket %s %v is negative", k, p[k])
			}
		}
		burst := get(p, "burst_kb", 64) * 1024
		return &tokenBucket{
			rate:   get(p, "rate_gbps", linkRate/1e9*0.1) * 1e9 / 8 / float64(sources),
			burst:  burst,
			tokens: burst,
		}, nil
	}
	return nil, fmt.Errorf("unknown admission policy %q (always, reject_all, token_bucket)", name)
}

// Check refuses what New refuses; none of it depends on the network.
func Check(name string, p map[string]float64) error {
	_, err := New(name, p, 1, 0)
	return err
}

// reads refuses a parameter of p that the named policy does not read.
func reads(name string, p map[string]float64, keys ...string) error {
	var extra []string
	for k := range p {
		if !slices.Contains(keys, k) {
			extra = append(extra, k)
		}
	}
	if len(extra) == 0 {
		return nil
	}
	sort.Strings(extra)
	// Joined, keys stays off the heap on the path where nothing is wrong.
	return fmt.Errorf("admission policy %q does not read %q (it reads: %s)", name, extra, strings.Join(keys, ", "))
}

func get(p map[string]float64, name string, def float64) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	return def
}

type admitAll struct{}

func (admitAll) Admit(int64, sim.Time) bool { return true }

type rejectAll struct{}

func (rejectAll) Admit(int64, sim.Time) bool { return false }

// tokenBucket admits a flow when its byte size fits the bucket. The refill
// is computed lazily from the flow's arrival time, which the engine
// delivers in nondecreasing order per shard.
type tokenBucket struct {
	rate   float64 // bytes per second, this source's share
	burst  float64 // bytes
	tokens float64
	last   sim.Time
}

func (tb *tokenBucket) Admit(bytes int64, arrival sim.Time) bool {
	tb.tokens += arrival.Sub(tb.last).Seconds() * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = arrival
	if tb.tokens < float64(bytes) {
		return false
	}
	tb.tokens -= float64(bytes)
	return true
}
