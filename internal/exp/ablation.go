package exp

import (
	"fmt"

	"baldur/internal/core"
	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// Ablations quantify the design decisions Sec II-C/IV argue for, each as a
// paired measurement:
//
//  1. randomized wiring vs. a regular butterfly (the expansion property);
//  2. binary exponential backoff on vs. off under hotspot congestion;
//  3. dragonfly UGAL vs. pure minimal routing on the adversarial pattern
//     (why the baseline is configured adaptively);
//  4. path multiplicity m=1 vs. the design point (Table V's motivation);
//  5. line-rate headroom: 25G -> 400G with unchanged switch latency (the
//     future-work claim of Sec VIII).

// AblationRow is one paired measurement.
type AblationRow struct {
	Name     string
	Variant  string
	MetricA  string
	ValueA   float64
	MetricB  string
	ValueB   float64
	Comments string
}

// Ablations runs the full suite at the given scale. Each side of each pair
// is one open-loop cell run through cell.run, so it honours sc's shards,
// audit and telemetry like every other cell. The ten cells are independent
// simulations and fan out through the shared worker pool; the returned rows
// keep the fixed order above.
func Ablations(sc Scale) ([]AblationRow, error) {
	// baldur runs ol as one cell of sc on the Baldur variant cfg selects.
	baldur := func(sc Scale, label string, cfg core.Config, ol traffic.OpenLoop) (Point, netsim.Ledger, error) {
		cfg.Nodes, cfg.Seed, cfg.Shards = sc.Nodes, sc.Seed, sc.Shards
		n, err := core.New(cfg)
		if err != nil {
			return Point{}, netsim.Ledger{}, err
		}
		p, err := sc.runOpenLoopOn(n, label, ol)
		return p, n.Ledger(), err
	}
	transpose := traffic.OpenLoop{
		Pattern: traffic.Transpose(sc.Nodes), Load: 0.7,
		PacketsPerNode: sc.PacketsPerNode, Seed: sc.Seed + 9,
	}
	suite := []struct {
		row AblationRow
		// side measures side A (b false) or side B (b true) of the pair.
		side func(label string, b bool) (float64, error)
	}{{
		// 1. Wiring randomization (raw drop rate, transpose @0.7).
		AblationRow{
			Name: "wiring", Variant: "random vs regular butterfly",
			MetricA: "random drop%", MetricB: "regular drop%",
			Comments: "transpose @0.7: expansion makes worst-case permutations benign",
		},
		func(label string, regular bool) (float64, error) {
			p, _, err := baldur(sc, label, core.Config{
				Multiplicity: 4, DisableRetransmit: true, RegularWiring: regular,
			}, transpose)
			return p.DropRate * 100, err
		},
	}, {
		// 2. BEB (goodput at a fixed horizon under hotspot).
		AblationRow{
			Name: "beb", Variant: "backoff on vs off",
			MetricA: "goodput with", MetricB: "goodput without",
			Comments: "hotspot @0.7, 2 ms horizon: BEB prevents congestion collapse",
		},
		func(label string, disable bool) (float64, error) {
			hs := sc
			hs.MaxSimTime = 2 * sim.Millisecond
			_, l, err := baldur(hs, label, core.Config{Multiplicity: 2, DisableBEB: disable}, traffic.OpenLoop{
				Pattern: traffic.Hotspot(sc.Nodes, 0), Load: 0.7,
				PacketsPerNode: sc.PacketsPerNode / 4, Seed: sc.Seed + 17,
			})
			return float64(l.Delivered), err
		},
	}, {
		// 3. Dragonfly routing.
		AblationRow{
			Name: "dragonfly-routing", Variant: "ugal vs minimal",
			MetricA: "ugal avg ns", MetricB: "minimal avg ns",
			Comments: "group permutation @0.7: the baseline needs its adaptivity",
		},
		func(label string, minimal bool) (float64, error) {
			routing := "ugal"
			if minimal {
				routing = "minimal"
			}
			n, err := elecnet.NewDragonfly(elecnet.DragonflyConfig{
				P: sc.DragonflyP, Seed: sc.Seed, Routing: routing, Shards: sc.Shards,
			})
			if err != nil {
				return 0, err
			}
			group := 2 * sc.DragonflyP * sc.DragonflyP
			p, err := sc.runOpenLoopOn(n, label, traffic.OpenLoop{
				Pattern: traffic.GroupPermutation(n.NumNodes(), group, sc.Seed+5),
				Load:    0.7, PacketsPerNode: sc.PacketsPerNode, Seed: sc.Seed + 3,
			})
			return p.AvgNS, err
		},
	}, {
		// 4. Multiplicity (latency with the protocol on).
		AblationRow{
			Name: "multiplicity", Variant: "m=1 vs m=4",
			MetricA: "m1 avg ns", MetricB: "m4 avg ns",
			Comments: "transpose @0.7 with retransmission: drops dominate at m=1",
		},
		func(label string, m4 bool) (float64, error) {
			m := 1
			if m4 {
				m = 4
			}
			p, _, err := baldur(sc, label, core.Config{Multiplicity: m}, transpose)
			return p.AvgNS, err
		},
	}, {
		// 5. Link-rate headroom.
		AblationRow{
			Name: "link-rate", Variant: "25G vs 400G",
			MetricA: "avg ns @25G", MetricB: "avg ns @400G",
			Comments: "switching stays 1.5 ns/stage; latency approaches the 200 ns fiber floor",
		},
		func(label string, fast bool) (float64, error) {
			bps := 25e9
			if fast {
				bps = 400e9
			}
			p, _, err := baldur(sc, label, core.Config{LinkRate: bps}, traffic.OpenLoop{
				Pattern: traffic.RandomPermutation(sc.Nodes, sc.Seed+2), Load: 0.5,
				PacketsPerNode: sc.PacketsPerNode, Seed: sc.Seed + 2,
			})
			return p.AvgNS, err
		},
	}}

	rows := make([]AblationRow, len(suite))
	for i := range suite {
		rows[i] = suite[i].row
	}
	err := runParallel(2*len(suite), sc.workers(), func(i int) error {
		a, b := &suite[i/2], i%2 == 1
		v, err := a.side(fmt.Sprintf("ablation-%s-%c", a.row.Name, "AB"[i%2]), b)
		if err != nil {
			return err
		}
		if b {
			rows[i/2].ValueB = v
		} else {
			rows[i/2].ValueA = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderAblations formats the suite.
func RenderAblations(rows []AblationRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Name, r.Variant,
			fmt.Sprintf("%s=%.2f", r.MetricA, r.ValueA),
			fmt.Sprintf("%s=%.2f", r.MetricB, r.ValueB),
			r.Comments,
		}
	}
	return "Ablations — design-decision deltas\n" + renderTable(
		[]string{"ablation", "variant", "A", "B", "notes"}, out)
}
