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
// fault surface, ApplyFault — a *set* of dead switches, severed host links
// and a degraded-laser drop probability, all mutable at barrier boundaries —
// so runs can operate through failure and restoration, not just diagnose it.

// setSwitch marks the 2x2 switch at (stage, sw) dead or restores it. Dead
// switches form a set, so several can be dead at once. Packets that reach a
// dead switch are dropped silently (counted in Stats as drops at that
// stage, and in FaultDrops).
func (n *Network) setSwitch(stage, sw int, dead bool) error {
	if stage < 0 || stage >= n.mb.Stages || sw < 0 || sw >= n.mb.SwitchesPerStage() {
		return fmt.Errorf("core: switch %d at stage %d out of range", sw, stage)
	}
	idx := stage*n.mb.SwitchesPerStage() + sw
	if dead {
		n.deadSwitch.Set(idx)
	} else {
		n.deadSwitch.Clear(idx)
	}
	return nil
}

// setHostLink severs or repairs node's host fiber. While it is severed every
// transmission entering the network from the node and every last-bit
// arrival to it is lost (FaultDrops). The node's NIC keeps running — with
// the reliability protocol on it retransmits into the cut until
// Config.MaxAttempts gives up.
func (n *Network) setHostLink(node int, dead bool) error {
	if node < 0 || node >= n.cfg.Nodes {
		return fmt.Errorf("core: host link %d outside [0,%d)", node, n.cfg.Nodes)
	}
	if dead {
		n.deadLink.Set(node)
	} else {
		n.deadLink.Clear(node)
	}
	return nil
}

// setDegrade enables degraded-laser operation: every hop additionally drops
// with probability p (0 restores healthy operation). Draws come from a
// dedicated fabric-shard stream, so degraded runs stay bit-identical for any
// shard count.
func (n *Network) setDegrade(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("core: degrade probability %v outside [0,1)", p)
	}
	n.degrade = p
	return nil
}

// ApplyFault implements faults.Target; it is the network's only fault
// surface. It must only be called at barrier boundaries (netsim.Drive's
// slice boundaries are) or between runs. A refused event leaves the fault
// state as it was.
func (n *Network) ApplyFault(ev faults.Event) error {
	var err error
	switch ev.Action {
	case faults.KillSwitch, faults.RestoreSwitch:
		err = n.setSwitch(ev.A, ev.B, ev.Action == faults.KillSwitch)
	case faults.KillLink, faults.KillNode, faults.RestoreLink, faults.RestoreNode:
		// Baldur's only links outside the fabric are the host fibers.
		err = n.setHostLink(ev.A, ev.Action == faults.KillLink || ev.Action == faults.KillNode)
	case faults.SetDegrade:
		err = n.setDegrade(ev.Prob)
	case faults.ClearDegrade:
		err = n.setDegrade(0)
	default:
		return fmt.Errorf("core: unsupported fault action %v", ev.Action)
	}
	n.faulty = n.deadSwitch.Any() || n.deadLink.Any() || n.degrade > 0
	return err
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
