package core

import (
	"fmt"

	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/topo"
)

// Fault support (Sec IV-F and internal/faults): Baldur provides diagnosis
// hooks so an error can be isolated to a single 2x2 switch, plus a scripted
// fault surface — a *set* of dead switches, severed host links and a
// degraded-laser drop probability, all mutable at barrier boundaries — so
// runs can operate through failure and restoration, not just diagnose it.

// FaultSpec identifies a faulty switch: every packet crossing it is lost.
type FaultSpec struct {
	Stage  int
	Switch int32
}

func (n *Network) switchIndex(f FaultSpec) (int, error) {
	if f.Stage < 0 || f.Stage >= n.mb.Stages || f.Switch < 0 || int(f.Switch) >= n.mb.SwitchesPerStage() {
		return 0, fmt.Errorf("core: fault %+v out of range", f)
	}
	return f.Stage*n.mb.SwitchesPerStage() + int(f.Switch), nil
}

// refreshFaulty recomputes the single hot-path guard after any fault-state
// mutation.
func (n *Network) refreshFaulty() {
	n.faulty = n.deadSwitch.Any() || n.deadLink.Any() || n.degrade > 0
}

// InjectFault marks a switch as faulty; faults accumulate into a set, so
// several switches can be dead at once. Packets that reach a dead switch are
// dropped silently (counted in Stats as drops at that stage, and in
// FaultDrops); ClearFault restores one.
func (n *Network) InjectFault(f FaultSpec) error {
	idx, err := n.switchIndex(f)
	if err != nil {
		return err
	}
	n.deadSwitch.Set(idx)
	n.refreshFaulty()
	return nil
}

// ClearFault restores one switch previously marked faulty by InjectFault.
func (n *Network) ClearFault(f FaultSpec) error {
	idx, err := n.switchIndex(f)
	if err != nil {
		return err
	}
	n.deadSwitch.Clear(idx)
	n.refreshFaulty()
	return nil
}

// KillHostLink severs node's host fiber: every transmission entering the
// network from it and every last-bit arrival to it is lost (FaultDrops).
// The node's NIC keeps running — with the reliability protocol on it
// retransmits into the cut until Config.MaxAttempts gives up.
func (n *Network) KillHostLink(node int) error {
	if node < 0 || node >= n.cfg.Nodes {
		return fmt.Errorf("core: host link %d outside [0,%d)", node, n.cfg.Nodes)
	}
	n.deadLink.Set(node)
	n.refreshFaulty()
	return nil
}

// RestoreHostLink repairs a severed host fiber.
func (n *Network) RestoreHostLink(node int) error {
	if node < 0 || node >= n.cfg.Nodes {
		return fmt.Errorf("core: host link %d outside [0,%d)", node, n.cfg.Nodes)
	}
	n.deadLink.Clear(node)
	n.refreshFaulty()
	return nil
}

// SetDegrade enables degraded-laser operation: every hop additionally drops
// with probability p (0 restores healthy operation). Draws come from a
// dedicated fabric-shard stream, so degraded runs stay bit-identical for any
// shard count.
func (n *Network) SetDegrade(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("core: degrade probability %v outside [0,1)", p)
	}
	n.degrade = p
	n.refreshFaulty()
	return nil
}

// ApplyFault implements faults.Target. It must only be called at barrier
// boundaries (netsim.Drive's slice boundaries are).
func (n *Network) ApplyFault(ev faults.Event) error {
	switch ev.Action {
	case faults.KillSwitch:
		return n.InjectFault(FaultSpec{Stage: ev.A, Switch: int32(ev.B)})
	case faults.RestoreSwitch:
		return n.ClearFault(FaultSpec{Stage: ev.A, Switch: int32(ev.B)})
	case faults.KillLink, faults.KillNode:
		// Baldur's only links outside the fabric are the host fibers.
		return n.KillHostLink(ev.A)
	case faults.RestoreLink, faults.RestoreNode:
		return n.RestoreHostLink(ev.A)
	case faults.SetDegrade:
		return n.SetDegrade(ev.Prob)
	case faults.ClearDegrade:
		return n.SetDegrade(0)
	}
	return fmt.Errorf("core: unsupported fault action %v", ev.Action)
}

// SetTestMode forces deterministic single-path routing: every switch uses
// only output path `path` of the routed direction (the diagnostic
// configuration of Sec IV-F). Pass -1 to restore normal multi-path
// arbitration.
func (n *Network) SetTestMode(path int) error {
	if path >= n.cfg.Multiplicity {
		return fmt.Errorf("core: test path %d >= multiplicity %d", path, n.cfg.Multiplicity)
	}
	n.testPath = path
	return nil
}

// Wiring exposes the topology for diagnosis tooling.
func (n *Network) Wiring() *topo.MultiButterfly { return n.mb }

// ProbePath sends one test packet from src to dst in the current test mode
// and reports whether it was delivered. It runs the network until no event
// remains, so use it on an otherwise idle network built with
// DisableRetransmit (a probe lost to a fault would otherwise be
// retransmitted until the attempt cap — forever, with MaxAttempts unset).
// Without retransmission every transmission is either delivered or dropped
// exactly once, so the probe was delivered iff no drop matched it. Call it
// between runs, on any shard count.
func (n *Network) ProbePath(src, dst int) bool {
	if !n.cfg.DisableRetransmit {
		panic("core: ProbePath requires DisableRetransmit (diagnosis runs without the reliability protocol)")
	}
	// The drop observer matches the probe packet by identity, not by any
	// (src, dst, size) signature: workload packets with the same endpoints
	// and size must not register as the probe. The probe pointer is filled
	// in when the deferred Send runs.
	const probeSize = 64
	var probe *netsim.Packet
	dropped := false
	n.onDrop = func(p *netsim.Packet) { dropped = dropped || p == probe }
	defer func() { n.onDrop = nil }()
	n.ScheduleNode(src, n.Engine().Now(), sim.EventFunc(func() { probe = n.Send(src, dst, probeSize) }))
	// Run to each next event time in turn, so the clock stops at the last
	// event, as a drained serial engine's does.
	for n.Run(n.NextTime()) {
	}
	return !dropped
}
