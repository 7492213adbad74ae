package elecnet

import (
	"fmt"

	"baldur/internal/sim"
	"baldur/internal/topo"
)

// This file exports the analytical inputs of the electrical baselines for
// the flow-level twin (internal/twin): the ideal network's flat latency and
// the multi-butterfly's effective (defaulted) configuration and exact
// seed-driven wiring. The defaults normalizer is the one NewMultiButterfly
// uses, and the delays and rates are the package's (and netsim's)
// constants, so the analytical model and the event-level simulator always
// agree on them.

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
