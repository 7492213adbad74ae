package exp

import (
	"fmt"
	"strconv"

	"baldur/internal/netsim"
	"baldur/internal/workload"

	// The built-in policy plugins register themselves by name; linking them
	// here makes every exp entry point (baldursim, campaign, tests) able to
	// resolve spec policy names.
	_ "baldur/internal/workload/admission"
	_ "baldur/internal/workload/routing"
)

// SLOReport is one workload cell's service-level report: per-tenant rows
// plus the cell-wide ledger totals the conservation reconciliation pins.
type SLOReport struct {
	Network  string
	Workload string
	Tenants  []workload.TenantSLO

	// Ledger totals across tenants: Arrived == Admitted + Rejected.
	Arrived  uint64
	Admitted uint64
	Rejected uint64
	// AdmittedPackets is the packetized admitted volume; when the run
	// drains it equals the network's injected-packet ledger.
	AdmittedPackets uint64
	Injected        uint64
	Delivered       uint64
	// IncompleteFlows counts flows cut short by faults or the horizon.
	IncompleteFlows int
	Finished        bool
	Events          uint64
}

// RunWorkload runs one workload spec on one network at the given scale and
// returns the per-tenant SLO report. It runs on the packet engine at either
// fidelity: flows are outside the twin's envelope. When the run drains
// before the safety horizon, the report is reconciled against the network's
// conservation ledger: admitted packets must equal injected packets, and
// every arrival must be admitted or rejected — a mismatch is a driver bug
// and fails the cell.
func RunWorkload(network string, spec workload.Spec, sc Scale) (*SLOReport, error) {
	drv, err := workload.New(spec)
	if err != nil {
		return nil, err
	}
	net, err := build(network, sc)
	if err != nil {
		return nil, err
	}
	var col netsim.Collector
	c := sc.newCell(net, &col, fmt.Sprintf("%s-workload-%s", network, drv.Spec().Name), drv.Attach)
	var rep *SLOReport
	err = c.run(func() error {
		arrived, admitted, rejected, apkts := drv.Totals()
		rep = &SLOReport{
			Network:         network,
			Workload:        drv.Spec().Name,
			Tenants:         drv.TenantSLOs(),
			Arrived:         arrived,
			Admitted:        admitted,
			Rejected:        rejected,
			AdmittedPackets: apkts,
			Injected:        net.Ledger().Injected,
			Delivered:       col.Delivered(),
			IncompleteFlows: drv.IncompleteFlows(),
			Finished:        !c.more,
			Events:          net.Events(),
		}
		if arrived != admitted+rejected {
			return fmt.Errorf("exp: %s workload %q: ledger mismatch: arrived %d != admitted %d + rejected %d",
				network, rep.Workload, arrived, admitted, rejected)
		}
		// An unfinished run legitimately has flow senders holding unsent
		// packets, so only a drained run must reconcile exactly.
		if rep.Finished && rep.Injected != apkts {
			return fmt.Errorf("exp: %s workload %q: conservation mismatch: network injected %d packets, driver admitted %d",
				network, rep.Workload, rep.Injected, apkts)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// sloHeader is the per-tenant report schema shared by CSV and Table.
var sloHeader = []string{
	"network", "workload", "tenant",
	"arrived", "admitted", "rejected", "reject_rate", "completed",
	"fct_p50_ns", "fct_p99_ns", "fct_p999_ns", "fct_max_ns", "exact",
	"goodput_gbps",
}

func (r *SLOReport) rows() [][]string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	rows := make([][]string, 0, len(r.Tenants))
	for i := range r.Tenants {
		t := &r.Tenants[i]
		rows = append(rows, []string{
			r.Network, r.Workload, t.Tenant,
			fmt.Sprint(t.Arrived), fmt.Sprint(t.Admitted), fmt.Sprint(t.Rejected),
			f(t.RejectRate), fmt.Sprint(t.Completed),
			f(t.FCTp50NS), f(t.FCTp99NS), f(t.FCTp999NS), f(t.FCTMaxNS),
			fmt.Sprint(t.ExactQuantiles),
			f(t.GoodputGbps),
		})
	}
	return rows
}

// CSV renders the per-tenant SLO rows with full float precision, so equal
// reports render to byte-identical CSV (the shard-invariance tests compare
// this form directly).
func (r *SLOReport) CSV() string { return CSV(sloHeader, r.rows()) }

// Table renders the per-tenant SLO rows as a fixed-width table with
// microsecond FCT columns.
func (r *SLOReport) Table() string {
	header := []string{"tenant", "arrived", "admit", "reject", "rej%", "done",
		"p50_us", "p99_us", "p99.9_us", "max_us", "exact", "goodput_gbps"}
	rows := make([][]string, 0, len(r.Tenants))
	for i := range r.Tenants {
		t := &r.Tenants[i]
		rows = append(rows, []string{
			t.Tenant,
			fmt.Sprint(t.Arrived), fmt.Sprint(t.Admitted), fmt.Sprint(t.Rejected),
			fmt.Sprintf("%.1f", t.RejectRate*100), fmt.Sprint(t.Completed),
			fmt.Sprintf("%.3f", t.FCTp50NS/1e3), fmt.Sprintf("%.3f", t.FCTp99NS/1e3),
			fmt.Sprintf("%.3f", t.FCTp999NS/1e3), fmt.Sprintf("%.3f", t.FCTMaxNS/1e3),
			fmt.Sprint(t.ExactQuantiles),
			fmt.Sprintf("%.3f", t.GoodputGbps),
		})
	}
	return renderTable(header, rows)
}
