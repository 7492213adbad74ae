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

// rankState is the replay state of one node. It is also the rank's compute
// wake event: a rank has at most one pending wake.
type rankState struct {
	r       *Replayer
	rank    int
	pc      int
	waiting bool // blocked in a Recv
	waitSrc int
	need    int // packets still needed by the current Recv
	pending map[int]int
	done    bool
}

// Run resumes the rank when its compute op ends.
func (st *rankState) Run(*sim.Engine) { st.r.step(st.rank) }

// kickoff starts every rank at the replay's start time.
type kickoff struct{ r *Replayer }

func (k kickoff) Run(*sim.Engine) {
	for rank := range k.r.ranks {
		k.r.step(rank)
	}
}

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

	net      netsim.Network
	w        *Workload
	ranks    []*rankState
	stats    Stats
	alive    int
	progress uint64   // counts rank program-counter advances
	lastStep sim.Time // when a rank last ran
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
	r.alive = len(w.Programs)
	net.OnDeliver(r.onDeliver)
	return r, nil
}

// noDeadline bounds Run's drive: beyond any replay, and one below the
// largest Time so the engines' inclusive-deadline arithmetic cannot overflow.
const noDeadline = sim.Time(math.MaxInt64 - 1)

// Run replays the workload to completion and returns the statistics: Start,
// then netsim.Drive on the watchdog timeline with no deadline, sampling Tel
// at every boundary. It drives the network's engine, so attach collectors
// beforehand.
func (r *Replayer) Run() Stats {
	// Drive fails only when the watchdog trips, which Stats reports.
	_, _ = netsim.Drive(r.net, r.Start(), netsim.DriveOptions{Deadline: noDeadline, Tel: r.Tel})
	return r.Stats()
}

// Start schedules every rank's first step at the current virtual time and
// returns the progress watchdog as a timeline for netsim.Drive, or nil when
// Watchdog is 0. Call it once, then drive the network.
func (r *Replayer) Start() netsim.Timeline {
	eng := r.net.Engine()
	eng.Schedule(eng.Now(), kickoff{r})
	if r.Watchdog <= 0 {
		return nil
	}
	return &watchdog{r: r, from: eng.Now(), executed: r.net.Events()}
}

// Stats reports the replay's outcome. A replay that neither completed nor
// tripped the watchdog is a deadlock once the engine has drained (e.g. a
// lossy run that exhausted retransmissions, or a circular Recv); one cut
// short by a deadline has no stuck report.
func (r *Replayer) Stats() Stats {
	st := r.stats
	st.Completed = r.alive == 0
	if !st.Completed && st.Stuck == nil && r.net.Engine().Pending() == 0 {
		st.Stuck = r.stuckReport(r.lastStep, 0, true)
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
	prog     uint64   // r.progress when the window started
	from     sim.Time // start of the current no-progress window
	executed uint64   // events dispatched when the window started
}

func (w *watchdog) NextAt() (sim.Time, bool) { return w.from.Add(w.r.Watchdog), true }

func (w *watchdog) Pending() bool { return false }

// ApplyDue checks progress at boundary now. A trip records the stuck report
// and returns it as the error that stops Drive; a run that drained inside
// the window is a deadlock, which Stats reports instead.
func (w *watchdog) ApplyDue(n netsim.Network, now sim.Time, _ *telemetry.Telemetry) (int, error) {
	eng := n.Engine()
	switch {
	case w.r.progress != w.prog:
		// The advance happened at or before now: restart the window here.
		w.prog, w.from, w.executed = w.r.progress, now, n.Events()
	case n.Events() == w.executed:
		if eng.Pending() > 0 && eng.NextTime() > w.from {
			w.from = eng.NextTime()
		}
	case now >= w.from.Add(w.r.Watchdog) && eng.Pending() > 0:
		// Events kept executing for a full window with no rank advancing:
		// the replay is spinning (e.g. endless retransmissions into a
		// faulty fabric).
		w.r.stats.Stuck = w.r.stuckReport(now, w.r.Watchdog, false)
		return 0, w.r.stats.Stuck
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

// step advances a rank until it blocks or finishes.
func (r *Replayer) step(rank int) {
	st := r.ranks[rank]
	prog := r.w.Programs[rank]
	r.lastStep = r.net.Engine().Now()
	for !st.done {
		if st.pc >= len(prog) {
			st.done = true
			r.alive--
			r.progress++
			r.stats.Makespan = r.lastStep.Sub(0)
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
				r.net.Send(rank, op.Peer, size)
				r.stats.Packets++
			}
			st.pc++
			r.progress++
		case OpCompute:
			st.pc++
			r.progress++
			if op.Dur > 0 {
				r.net.Engine().ScheduleAfter(op.Dur, st)
				return
			}
		case OpRecv:
			need := r.w.packets(op.Bytes)
			avail := st.pending[op.Peer]
			if avail >= need {
				st.pending[op.Peer] = avail - need
				st.pc++
				r.progress++
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

func (r *Replayer) onDeliver(p *netsim.Packet, _ sim.Time) {
	if p.Dst >= len(r.ranks) {
		return
	}
	st := r.ranks[p.Dst]
	if st.waiting && st.waitSrc == p.Src {
		st.need--
		if st.need == 0 {
			st.waiting = false
			st.pc++
			r.progress++
			r.step(p.Dst)
		}
		return
	}
	st.pending[p.Src]++
}
