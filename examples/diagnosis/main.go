// diagnosis demonstrates Baldur's fault-isolation procedure (Sec IV-F): a
// faulty 2x2 switch is injected into a live network, the switches are
// configured for deterministic single-path routing via the test signals,
// and probe packets isolate the fault to the exact (stage, switch).
package main

import (
	"fmt"
	"log"

	"baldur/internal/core"
	"baldur/internal/faults"
	"baldur/internal/reliability"
)

func main() {
	const nodes = 256
	net, err := core.New(core.Config{
		Nodes:             nodes,
		Multiplicity:      4,
		Seed:              11,
		DisableRetransmit: true, // diagnosis runs below the reliability protocol
	})
	if err != nil {
		log.Fatal(err)
	}

	fault := reliability.FaultySwitch{Stage: 3, Switch: 77}
	fmt.Printf("Injecting fault at stage %d, switch %d (of %d switches/stage, %d stages)\n",
		fault.Stage, fault.Switch, net.Wiring().SwitchesPerStage(), net.Stages())
	if err := net.ApplyFault(faults.Event{Action: faults.KillSwitch, A: fault.Stage, B: int(fault.Switch)}); err != nil {
		log.Fatal(err)
	}

	// Force deterministic routing: every switch enables only path 0.
	const path = 0
	if err := net.SetTestMode(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Switches configured for single-path test mode (path %d)\n\n", path)

	probes := 0
	oracle := func(src, dst int) bool {
		probes++
		return !net.ProbePath(src, dst)
	}

	got, err := reliability.Diagnose(net.Wiring(), path, oracle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Diagnosis after %d probe packets: stage %d, switch %d\n",
		probes, got.Stage, got.Switch)
	if got == fault {
		fmt.Println("=> exact isolation: the faulty switch can now be repaired or bypassed")
	} else {
		fmt.Println("=> MISDIAGNOSIS (this should never happen)")
	}
}
