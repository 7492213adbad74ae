package exp

import (
	"fmt"

	"baldur/internal/netsim"
)

// LatencyProfile is the full latency distribution of one (network, pattern,
// load) cell — the detail behind Fig 6's avg/p99 pair.
type LatencyProfile struct {
	Network string
	Pattern string
	Load    float64
	P50     float64
	P90     float64
	P99     float64
	P999    float64
	Max     float64
	Mean    float64
	Samples int64
}

// Profile measures the latency distribution for one cell.
func Profile(network, pattern string, load float64, sc Scale) (LatencyProfile, error) {
	net, pat, err := buildWithPattern(network, pattern, sc)
	if err != nil {
		return LatencyProfile{}, err
	}
	var col netsim.Collector
	c := sc.newCell(net, &col, fmt.Sprintf("%s-%s-%g-profile", network, pattern, load), openLoop(pat, load, sc))
	var lp LatencyProfile
	err = c.run(func() error {
		h := col.Merged()
		lp = LatencyProfile{
			Network: network,
			Pattern: pattern,
			Load:    load,
			P50:     h.Quantile(0.50),
			P90:     h.Quantile(0.90),
			P99:     h.Quantile(0.99),
			P999:    h.Quantile(0.999),
			Max:     h.Max(),
			Mean:    col.AvgNS(),
			Samples: col.Samples(),
		}
		return nil
	})
	return lp, err
}

// RenderProfiles formats a set of profiles as a percentile table.
func RenderProfiles(profiles []LatencyProfile) string {
	rows := make([][]string, len(profiles))
	for i, p := range profiles {
		rows[i] = []string{
			p.Network,
			fmt.Sprintf("%.1f", p.Load),
			fmt.Sprintf("%.0f", p.Mean),
			fmt.Sprintf("%.0f", p.P50),
			fmt.Sprintf("%.0f", p.P90),
			fmt.Sprintf("%.0f", p.P99),
			fmt.Sprintf("%.0f", p.P999),
			fmt.Sprintf("%.0f", p.Max),
		}
	}
	return "Latency distribution (ns)\n" + renderTable(
		[]string{"network", "load", "mean", "p50", "p90", "p99", "p99.9", "max"}, rows)
}
