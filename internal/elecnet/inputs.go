package elecnet

import (
	"fmt"

	"baldur/internal/sim"
	"baldur/internal/topo"
)

// This file exports the analytical inputs of the electrical baselines for
// the flow-level twin (internal/twin): the effective (defaulted)
// configurations, the routing-relevant topology parameters and, for the
// multi-butterfly, the exact seed-driven wiring. Each With-Defaults
// normalizer is the same one the corresponding constructor uses, and the
// delays and rates are the package's (and netsim's) constants, so the
// analytical model and the event-level simulator always agree on them.

// IdealLatency is the flat latency of the ideal reference network.
const IdealLatency = 200 * sim.Nanosecond

func (cfg MBConfig) withDefaults() MBConfig {
	if cfg.Nodes == 0 {
		cfg.Nodes = 1024
	}
	if cfg.Multiplicity == 0 {
		cfg.Multiplicity = 4
	}
	return cfg
}

func (cfg DragonflyConfig) withDefaults() (DragonflyConfig, error) {
	if cfg.P == 0 {
		cfg.P = 4
	}
	if cfg.P < 1 {
		return cfg, fmt.Errorf("elecnet: dragonfly p = %d", cfg.P)
	}
	if cfg.Routing == "" {
		cfg.Routing = "ugal"
	}
	switch cfg.Routing {
	case "ugal", "minimal", "valiant":
	default:
		return cfg, fmt.Errorf("elecnet: unknown dragonfly routing %q", cfg.Routing)
	}
	return cfg, nil
}

func (cfg FatTreeConfig) withDefaults() (FatTreeConfig, error) {
	if cfg.K == 0 {
		cfg.K = 16
	}
	if cfg.K < 4 || cfg.K%2 != 0 {
		return cfg, fmt.Errorf("elecnet: fat-tree k = %d, want even >= 4", cfg.K)
	}
	return cfg, nil
}

// MBInputs are the analytical inputs of the electrical multi-butterfly.
type MBInputs struct {
	Cfg    MBConfig // defaulted
	Wiring *topo.MultiButterfly
}

// AnalyticalMB derives the multi-butterfly's analytical inputs without
// building the event-level network.
func AnalyticalMB(cfg MBConfig) (MBInputs, error) {
	cfg = cfg.withDefaults()
	wiring, err := topo.NewMultiButterfly(cfg.Nodes, cfg.Multiplicity, cfg.Seed)
	if err != nil {
		return MBInputs{}, fmt.Errorf("elecnet: %w", err)
	}
	return MBInputs{Cfg: cfg, Wiring: wiring}, nil
}

// FatTreeInputs are the analytical inputs of the fat-tree.
type FatTreeInputs struct {
	Cfg   FatTreeConfig // defaulted
	K     int
	Hosts int
}

// AnalyticalFatTree derives the fat-tree's analytical inputs.
func AnalyticalFatTree(cfg FatTreeConfig) (FatTreeInputs, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return FatTreeInputs{}, err
	}
	return FatTreeInputs{Cfg: cfg, K: cfg.K, Hosts: FatTreeNodes(cfg.K)}, nil
}
