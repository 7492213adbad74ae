// Quickstart: build a small Baldur network, drive it with a random
// permutation at 0.7 load, and print the latency and drop statistics —
// the minimal end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"baldur"
)

func main() {
	const nodes = 64

	net, err := baldur.New(baldur.Config{Nodes: nodes, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// Collect per-packet latency on delivery.
	var col baldur.Collector
	col.Attach(net)

	// Open-loop injection: every node sends 500 packets to its partner
	// under a random permutation, with exponential inter-arrival times
	// at 70% of the 25 Gbps line rate (the paper's heavy-load point).
	ol := baldur.OpenLoop{
		Pattern:        baldur.RandomPermutation(nodes, 7),
		Load:           0.7,
		PacketsPerNode: 500,
		Seed:           1,
	}
	ol.Start(net)

	// Run the discrete-event simulation to completion (every packet
	// delivered and acknowledged) within a 10 ms horizon of virtual time.
	if net.Run(baldur.Time(0).Add(10 * baldur.Millisecond)) {
		log.Fatal("events still queued at the 10 ms horizon")
	}

	fmt.Printf("Baldur %d nodes, multiplicity %d, %d stages\n",
		nodes, net.Multiplicity(), net.Stages())
	fmt.Printf("delivered:       %d packets\n", col.Delivered())
	fmt.Printf("average latency: %.1f ns\n", col.AvgNS())
	fmt.Printf("tail (p99):      %.1f ns\n", col.TailNS())
	fmt.Printf("drop rate:       %.3f%% (every drop was retransmitted)\n",
		net.Stats.DataDropRate()*100)
	fmt.Printf("retransmissions: %d; max retx buffer: %d bytes\n",
		net.Stats.Retransmissions, net.Stats.MaxRetxBufBytes)
}
