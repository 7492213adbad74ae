// Package routing holds the workload layer's flow-routing policies:
// "uniform" (uniform random destination per flow), "permutation" (a
// fixed-point-free random permutation built once per tenant — every flow of
// a source goes to the same partner) and "hotspot" (all flows target one
// node; parameter "target", default 0).
package routing

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// Policy picks a flow's destination. One instance is built per tenant and
// shared by every source's injector across all shards, so it is immutable
// after construction; any randomness comes from the caller's per-(tenant,
// source) rng, which keeps destination draws independent of shard count.
type Policy interface {
	// Dest returns the destination of a flow from src: a node of the
	// network other than src.
	Dest(src int, rng *sim.RNG) int
}

// New builds the named policy for one tenant on a network of nodes nodes;
// seed fixes the permutation. It refuses what Check refuses, and a hotspot
// target that is not a node of the network.
func New(name string, p map[string]float64, nodes int, seed uint64) (Policy, error) {
	build, err := parse(name, p)
	if err != nil {
		return nil, err
	}
	return build(nodes, seed)
}

// Check refuses an unknown policy name (listing the known ones), a
// parameter the policy does not read, and a parameter out of range, before
// the node count is known.
func Check(name string, p map[string]float64) error {
	_, err := parse(name, p)
	return err
}

// parse is the one place the policy names and their parameters are known.
// It returns the checked policy's constructor for a network.
func parse(name string, p map[string]float64) (func(nodes int, seed uint64) (Policy, error), error) {
	switch name {
	case "uniform":
		return func(nodes int, _ uint64) (Policy, error) { return uniform{nodes: nodes}, nil }, reads(name, p)
	case "permutation":
		return func(nodes int, seed uint64) (Policy, error) {
			return permutation{pat: traffic.RandomPermutation(nodes, seed)}, nil
		}, reads(name, p)
	case "hotspot":
		if err := reads(name, p, "target"); err != nil {
			return nil, err
		}
		t := p["target"]
		if t < 0 || t != math.Trunc(t) {
			return nil, fmt.Errorf("hotspot target %v out of range: a node index is a non-negative integer", t)
		}
		return func(nodes int, _ uint64) (Policy, error) {
			if t >= float64(nodes) {
				return nil, fmt.Errorf("hotspot target %v out of range [0, %d)", t, nodes)
			}
			return hotspot{target: int(t), spill: (int(t) + 1) % nodes}, nil
		}, nil
	}
	return nil, fmt.Errorf("unknown routing policy %q (uniform, permutation, hotspot)", name)
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
	return fmt.Errorf("routing policy %q does not read %q (it reads: %s)", name, extra, strings.Join(keys, ", "))
}

type uniform struct{ nodes int }

func (u uniform) Dest(src int, rng *sim.RNG) int {
	d := rng.Intn(u.nodes - 1)
	if d >= src {
		d++ // skip the source: uniform over the other nodes-1
	}
	return d
}

type permutation struct{ pat *traffic.Pattern }

func (p permutation) Dest(src int, _ *sim.RNG) int { return p.pat.Dest[src] }

type hotspot struct {
	target int
	spill  int // where the target node itself sends
}

func (h hotspot) Dest(src int, _ *sim.RNG) int {
	if src == h.target {
		return h.spill
	}
	return h.target
}
