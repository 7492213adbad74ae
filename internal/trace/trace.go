// Package trace provides the communication-trace engine used for the
// paper's HPC workload evaluation (Sec V-A). The paper replays DUMPI traces
// of four DOE Design Forward mini-apps; those traces are not
// redistributable, so this package supplies (a) a replay engine with
// MPI-like blocking semantics (Send / Recv / Compute) that runs against any
// netsim.Network, and (b) synthetic generators that reproduce the
// communication *structure* of four Design Forward applications: AMG
// (3-D 6-point halo exchange), BigFFT (phased personalized all-to-all),
// CrystalRouter (ring neighbourhoods with heavy pairwise transfers), and
// FillBoundary "FB" (AMR boundary fill: irregular many-to-few exchanges that
// concentrate load — the pattern that degrades dragonfly and fat-tree most
// in the paper's Fig 7).
package trace

import (
	"fmt"
	"math"
	"strings"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// OpKind enumerates trace operations.
type OpKind uint8

// Trace operation kinds.
const (
	OpSend    OpKind = iota // send Bytes to Peer (non-blocking, eager)
	OpRecv                  // block until Bytes from Peer have arrived
	OpCompute               // local computation for Dur
)

// Op is one trace operation of a rank.
type Op struct {
	Kind  OpKind
	Peer  int
	Bytes int
	Dur   sim.Duration
}

// Program is the operation list of one rank.
type Program []Op

// Workload is a complete communication trace: one program per node.
type Workload struct {
	Name     string
	Programs []Program
	// PacketSize is the MTU messages are segmented into (default 512).
	PacketSize int
}

func (w *Workload) packetSize() int {
	if w.PacketSize == 0 {
		return netsim.PacketSize
	}
	return w.PacketSize
}

// packets returns how many packets a message of b bytes occupies.
func (w *Workload) packets(b int) int {
	ps := w.packetSize()
	n := (b + ps - 1) / ps
	if n < 1 {
		n = 1
	}
	return n
}

// Validate checks that every Recv is matched by equal send volume on the
// pair, so the replay cannot deadlock on missing data.
func (w *Workload) Validate() error {
	type pair struct{ a, b int }
	sent := map[pair]int{}
	recv := map[pair]int{}
	for rank, prog := range w.Programs {
		for i, op := range prog {
			switch op.Kind {
			case OpSend:
				if op.Peer < 0 || op.Peer >= len(w.Programs) || op.Peer == rank {
					return fmt.Errorf("trace %s: rank %d op %d: bad peer %d", w.Name, rank, i, op.Peer)
				}
				sent[pair{rank, op.Peer}] += w.packets(op.Bytes)
			case OpRecv:
				if op.Peer < 0 || op.Peer >= len(w.Programs) || op.Peer == rank {
					return fmt.Errorf("trace %s: rank %d op %d: bad peer %d", w.Name, rank, i, op.Peer)
				}
				recv[pair{op.Peer, rank}] += w.packets(op.Bytes)
			}
		}
	}
	for pr, nrecv := range recv {
		if sent[pr] < nrecv {
			return fmt.Errorf("trace %s: rank %d expects %d packets from %d but only %d sent",
				w.Name, pr.b, nrecv, pr.a, sent[pr])
		}
	}
	return nil
}

// TotalMessages returns the number of Send operations in the workload.
func (w *Workload) TotalMessages() int {
	n := 0
	for _, prog := range w.Programs {
		for _, op := range prog {
			if op.Kind == OpSend {
				n++
			}
		}
	}
	return n
}

// Stats reports the outcome of a replay.
type Stats struct {
	Makespan  sim.Duration // virtual time at which the last rank finished its program
	Packets   uint64       // data packets injected
	Completed bool         // all ranks ran their program to the end
	// Stuck is non-nil when the replay did not complete: either the
	// watchdog tripped (events kept executing but no rank advanced for a
	// full window) or the engine drained with ranks still blocked
	// (deadlock). It names the blocked ranks and their pending Recv peers.
	Stuck *StuckReport
}

// StuckRank describes one rank that has not run its program to the end.
type StuckRank struct {
	Rank    int
	PC      int  // program counter it is parked at
	Waiting bool // blocked in a Recv (else: parked mid-compute or never resumed)
	Peer    int  // the Recv's source rank, when Waiting
	Need    int  // packets the Recv still requires, when Waiting
}

// StuckReport diagnoses a replay that stopped making progress. It is the
// error netsim.Drive returns when the watchdog trips.
type StuckReport struct {
	// At is the virtual time of the diagnosis: the boundary the watchdog
	// tripped at, or for a deadlock the last time any rank ran.
	At sim.Time
	// Window is the no-progress window that tripped the watchdog; 0 when
	// the engine drained outright (Deadlock).
	Window   sim.Duration
	Deadlock bool
	Ranks    []StuckRank
}

// String renders the report as an actionable one-paragraph diagnostic.
func (s *StuckReport) String() string {
	var b strings.Builder
	if s.Deadlock {
		fmt.Fprintf(&b, "trace: deadlock at t=%s: engine drained with %d rank(s) blocked:",
			s.At.String(), len(s.Ranks))
	} else {
		fmt.Fprintf(&b, "trace: no rank progressed for %s (t=%s), %d rank(s) blocked:",
			s.Window.String(), s.At.String(), len(s.Ranks))
	}
	const maxListed = 16
	for i, r := range s.Ranks {
		if i == maxListed {
			fmt.Fprintf(&b, " … and %d more", len(s.Ranks)-maxListed)
			break
		}
		if r.Waiting {
			fmt.Fprintf(&b, " rank %d pc=%d awaits %d packet(s) from rank %d;", r.Rank, r.PC, r.Need, r.Peer)
		} else {
			fmt.Fprintf(&b, " rank %d pc=%d not waiting;", r.Rank, r.PC)
		}
	}
	return b.String()
}

// Error returns the diagnostic, so a watchdog trip stops netsim.Drive.
func (s *StuckReport) Error() string { return s.String() }

// rankState is the replay state of one rank. It lives on the rank's node's
// shard: only events on that shard (its start and compute wakes, both
// scheduled with ScheduleNode, and deliveries to the node) touch it, and
// Stats and the watchdog fold it at barriers. It is also the rank's start
// and compute wake event: a rank has at most one pending.
type rankState struct {
	r       *Replayer
	rank    int
	pc      int
	waiting bool // blocked in a Recv
	waitSrc int
	need    int // packets still needed by the current Recv
	pending map[int]int
	done    bool
	packets uint64   // data packets injected
	steps   uint64   // program-counter advances
	last    sim.Time // when the rank last ran
}

// Run starts the rank, or resumes it when its compute op ends.
func (st *rankState) Run(e *sim.Engine) { st.step(e.Now()) }

// Replayer executes a workload on a network.
type Replayer struct {
	// Watchdog, when > 0, is the progress-watchdog window: if events keep
	// executing but no rank advances its program counter for this much
	// simulated time, the replay stops and Stats.Stuck reports the blocked
	// ranks and their pending Recv peers instead of spinning silently.
	Watchdog sim.Duration
	// Tel, when non-nil, receives one metric sample per telemetry interval
	// while Run drives the replay.
	Tel *telemetry.Telemetry

	net   netsim.Network
	w     *Workload
	ranks []*rankState
	stuck *StuckReport // set when the watchdog trips
}

// NewReplayer wires a replayer to the network. The workload's node count
// must not exceed the network's.
func NewReplayer(net netsim.Network, w *Workload) (*Replayer, error) {
	if len(w.Programs) > net.NumNodes() {
		return nil, fmt.Errorf("trace: workload has %d ranks, network %d nodes",
			len(w.Programs), net.NumNodes())
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	r := &Replayer{net: net, w: w}
	r.ranks = make([]*rankState, len(w.Programs))
	for i := range r.ranks {
		r.ranks[i] = &rankState{r: r, rank: i, pending: map[int]int{}}
	}
	net.OnDeliver(r.onDeliver)
	return r, nil
}

// noDeadline bounds Run's drive: beyond any replay, and one below the
// largest Time so the engines' inclusive-deadline arithmetic cannot overflow.
const noDeadline = sim.Time(math.MaxInt64 - 1)

// Run replays the workload to completion and returns the statistics: Start,
// then netsim.Drive on the watchdog timeline with no deadline, sampling Tel
// at every boundary. It drives the network, so attach collectors
// beforehand.
func (r *Replayer) Run() Stats {
	// Drive fails only when the watchdog trips, which Stats reports.
	_, _ = netsim.Drive(r.net, r.Start(), netsim.DriveOptions{Deadline: noDeadline, Tel: r.Tel})
	return r.Stats()
}

// Start schedules every rank's first step on its node's shard at the current
// virtual time and returns the progress watchdog as a timeline for
// netsim.Drive, or nil when Watchdog is 0. Call it once, then drive the
// network.
func (r *Replayer) Start() netsim.Timeline {
	now := r.net.Engine().Now()
	for rank, st := range r.ranks {
		r.net.ScheduleNode(rank, now, st)
	}
	if r.Watchdog <= 0 {
		return nil
	}
	return &watchdog{r: r, from: now, executed: r.net.Events()}
}

// Stats reports the replay's outcome, folded from the ranks' own counters;
// call it between runs. A replay that neither completed nor tripped the
// watchdog is a deadlock once the network has drained (e.g. a lossy run
// that exhausted retransmissions, or a circular Recv); one cut short by a
// deadline has no stuck report.
func (r *Replayer) Stats() Stats {
	st := Stats{Completed: true, Stuck: r.stuck}
	var last sim.Time // the last time any rank ran
	for _, rs := range r.ranks {
		st.Packets += rs.packets
		last = max(last, rs.last)
		if rs.done {
			st.Makespan = max(st.Makespan, rs.last.Sub(0))
		} else {
			st.Completed = false
		}
	}
	if !st.Completed && st.Stuck == nil && r.net.Queued() == 0 {
		st.Stuck = r.stuckReport(last, 0, true)
	}
	return st
}

// watchdog is the progress watchdog as a netsim.Timeline. It has no actions
// of its own: it asks Drive for a boundary at the end of the current
// no-progress window, and at every boundary restarts the window (a rank
// advanced), fast-forwards it across an idle gap (nothing executed, e.g. a
// long compute op with its wakeup far in the future), or trips.
type watchdog struct {
	r        *Replayer
	prog     uint64   // the ranks' summed steps when the window started
	from     sim.Time // start of the current no-progress window
	executed uint64   // events dispatched when the window started
}

func (w *watchdog) NextAt() (sim.Time, bool) { return w.from.Add(w.r.Watchdog), true }

func (w *watchdog) Pending() bool { return false }

// ApplyDue checks progress at boundary now. A trip records the stuck report
// and returns it as the error that stops Drive; a run that drained inside
// the window is a deadlock, which Stats reports instead.
func (w *watchdog) ApplyDue(n netsim.Network, now sim.Time, _ *telemetry.Telemetry) (int, error) {
	// The summed steps change exactly when some rank advanced.
	var prog uint64
	for _, rs := range w.r.ranks {
		prog += rs.steps
	}
	switch {
	case prog != w.prog:
		// The advance happened at or before now: restart the window here.
		w.prog, w.from, w.executed = prog, now, n.Events()
	case n.Events() == w.executed:
		if n.Queued() > 0 && n.NextTime() > w.from {
			w.from = n.NextTime()
		}
	case now >= w.from.Add(w.r.Watchdog) && n.Queued() > 0:
		// Events kept executing for a full window with no rank advancing:
		// the replay is spinning (e.g. endless retransmissions into a
		// faulty fabric).
		w.r.stuck = w.r.stuckReport(now, w.r.Watchdog, false)
		return 0, w.r.stuck
	}
	return 0, nil
}

// stuckReport snapshots every unfinished rank.
func (r *Replayer) stuckReport(at sim.Time, window sim.Duration, deadlock bool) *StuckReport {
	rep := &StuckReport{At: at, Window: window, Deadlock: deadlock}
	for rank, st := range r.ranks {
		if st.done {
			continue
		}
		rep.Ranks = append(rep.Ranks, StuckRank{
			Rank:    rank,
			PC:      st.pc,
			Waiting: st.waiting,
			Peer:    st.waitSrc,
			Need:    st.need,
		})
	}
	return rep
}

// step advances the rank at time now until it blocks or finishes.
func (st *rankState) step(now sim.Time) {
	r := st.r
	prog := r.w.Programs[st.rank]
	st.last = now
	for !st.done {
		if st.pc >= len(prog) {
			st.done = true
			st.steps++
			return
		}
		op := prog[st.pc]
		switch op.Kind {
		case OpSend:
			n := r.w.packets(op.Bytes)
			last := op.Bytes - (n-1)*r.w.packetSize()
			for i := 0; i < n; i++ {
				size := r.w.packetSize()
				if i == n-1 && last > 0 {
					size = last
				}
				r.net.Send(st.rank, op.Peer, size)
			}
			st.packets += uint64(n)
			st.pc++
			st.steps++
		case OpCompute:
			st.pc++
			st.steps++
			if op.Dur > 0 {
				r.net.ScheduleNode(st.rank, now.Add(op.Dur), st)
				return
			}
		case OpRecv:
			need := r.w.packets(op.Bytes)
			avail := st.pending[op.Peer]
			if avail >= need {
				st.pending[op.Peer] = avail - need
				st.pc++
				st.steps++
				continue
			}
			st.pending[op.Peer] = 0
			st.need = need - avail
			st.waitSrc = op.Peer
			st.waiting = true
			return
		default:
			panic(fmt.Sprintf("trace: unknown op kind %d", op.Kind))
		}
	}
}

// onDeliver runs on the destination node's shard and touches only the
// destination rank's state.
func (r *Replayer) onDeliver(_ int, p *netsim.Packet, at sim.Time) {
	if p.Dst >= len(r.ranks) {
		return
	}
	st := r.ranks[p.Dst]
	if st.waiting && st.waitSrc == p.Src {
		st.need--
		if st.need == 0 {
			st.waiting = false
			st.pc++
			st.steps++
			st.step(at)
		}
		return
	}
	st.pending[p.Src]++
}
