package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"baldur/internal/sim"
)

// ScriptSpec is the declarative (JSON) form of a fault script. Times are
// microseconds of virtual time. Besides plain timed events it supports three
// generators — flaps, correlated bursts and incasts — that Compile expands
// into the flat Event timeline deterministically (bursts draw their victim
// sets from a seeded RNG, so the same spec + seed always compiles to the
// same script).
type ScriptSpec struct {
	Name    string       `json:"name"`
	Events  []EventSpec  `json:"events,omitempty"`
	Flaps   []FlapSpec   `json:"flaps,omitempty"`
	Bursts  []BurstSpec  `json:"bursts,omitempty"`
	Incasts []IncastSpec `json:"incasts,omitempty"`
}

// TargetSpec names a fault coordinate: kind is "switch" (core: stage a,
// switch b; elecnet: router a), "link" (core: node a's host fiber; elecnet:
// router a, output port b) or "node" (node a).
type TargetSpec struct {
	Kind string `json:"kind"`
	A    int    `json:"a"`
	B    int    `json:"b,omitempty"`
}

// EventSpec is one explicit timed event. Action is "kill", "restore",
// "degrade", "clear_degrade" or "incast".
type EventSpec struct {
	AtUS   float64    `json:"at_us"`
	Action string     `json:"action"`
	Target TargetSpec `json:"target,omitempty"`
	// Prob is the per-hop drop probability for "degrade".
	Prob float64 `json:"prob,omitempty"`
	// Sources/Packets size an "incast" (Target.A is the victim node).
	Sources int `json:"sources,omitempty"`
	Packets int `json:"packets,omitempty"`
}

// FlapSpec is a periodic kill/restore cycle: the target dies at start and
// every period after, and is restored duty*period after each kill. Count
// cycles are generated (default 1).
type FlapSpec struct {
	Target   TargetSpec `json:"target"`
	StartUS  float64    `json:"start_us"`
	PeriodUS float64    `json:"period_us"`
	Duty     float64    `json:"duty"` // fraction of the period spent dead
	Count    int        `json:"count,omitempty"`
}

// BurstSpec is a correlated failure burst: at the event time, K distinct
// targets drawn from the coordinate box [0,AMax)×[0,BMax) (BMax 0 means the
// B coordinate is unused) die together; with RestoreUS set they all come
// back that many microseconds later. The victim set is drawn from the
// compile seed, so a campaign can vary it per seed while staying
// reproducible.
type BurstSpec struct {
	Kind      string  `json:"kind"` // "switch", "link" or "node"
	AtUS      float64 `json:"at_us"`
	K         int     `json:"k"`
	AMax      int     `json:"a_max"`
	BMax      int     `json:"b_max,omitempty"`
	RestoreUS float64 `json:"restore_us,omitempty"`
}

// IncastSpec is an incast storm overlay: Sources distinct nodes each
// burst-inject Packets packets to the Target node at the event time.
type IncastSpec struct {
	AtUS    float64 `json:"at_us"`
	Target  int     `json:"target"`
	Sources int     `json:"sources"`
	Packets int     `json:"packets,omitempty"`
}

// ParseScripts decodes a JSON array of script specs.
func ParseScripts(data []byte) ([]ScriptSpec, error) {
	var specs []ScriptSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("faults: parsing scripts: %w", err)
	}
	return specs, nil
}

func usTime(us float64) sim.Time { return sim.Time(0).Add(sim.Microseconds(us)) }

func killFor(kind string) (Action, error) {
	switch kind {
	case "switch":
		return KillSwitch, nil
	case "link":
		return KillLink, nil
	case "node":
		return KillNode, nil
	}
	return 0, fmt.Errorf("faults: unknown target kind %q", kind)
}

// restoreOf maps a kill action to its restoration.
func restoreOf(kill Action) Action { return kill + 1 }

// maxScriptEvents bounds the events one compiled script may hold, so a
// flap count or burst size typed a few digits too long is refused instead
// of exhausting memory.
const maxScriptEvents = 1 << 20

// Compile expands the spec into a flat, time-sorted Script. The sort is
// stable, so simultaneous events apply in spec order; all randomness (burst
// victim sets) comes from seed.
func (s ScriptSpec) Compile(seed uint64) (Script, error) {
	var evs []Event
	for i, e := range s.Events {
		ev := Event{At: usTime(e.AtUS)}
		switch e.Action {
		case "kill", "restore":
			kill, err := killFor(e.Target.Kind)
			if err != nil {
				return Script{}, fmt.Errorf("faults: script %q event %d: %w", s.Name, i, err)
			}
			ev.Action = kill
			if e.Action == "restore" {
				ev.Action = restoreOf(kill)
			}
			ev.A, ev.B = e.Target.A, e.Target.B
		case "degrade":
			if e.Prob <= 0 || e.Prob >= 1 {
				return Script{}, fmt.Errorf("faults: script %q event %d: degrade prob %v outside (0,1)", s.Name, i, e.Prob)
			}
			ev.Action, ev.Prob = SetDegrade, e.Prob
		case "clear_degrade":
			ev.Action = ClearDegrade
		case "incast":
			ev.Action = StartIncast
			ev.A, ev.Count, ev.Packets = e.Target.A, e.Sources, e.Packets
		default:
			return Script{}, fmt.Errorf("faults: script %q event %d: unknown action %q", s.Name, i, e.Action)
		}
		evs = append(evs, ev)
	}
	for i, f := range s.Flaps {
		kill, err := killFor(f.Target.Kind)
		if err != nil {
			return Script{}, fmt.Errorf("faults: script %q flap %d: %w", s.Name, i, err)
		}
		if f.PeriodUS <= 0 || f.Duty <= 0 || f.Duty > 1 {
			return Script{}, fmt.Errorf("faults: script %q flap %d: need period > 0 and duty in (0,1], got period=%v duty=%v",
				s.Name, i, f.PeriodUS, f.Duty)
		}
		count := f.Count
		if count == 0 {
			count = 1
		}
		if count < 0 || count > (maxScriptEvents-len(evs))/2 {
			return Script{}, fmt.Errorf("faults: script %q flap %d: count %d outside [0, %d]",
				s.Name, i, f.Count, (maxScriptEvents-len(evs))/2)
		}
		for c := 0; c < count; c++ {
			down := f.StartUS + float64(c)*f.PeriodUS
			evs = append(evs, Event{At: usTime(down), Action: kill, A: f.Target.A, B: f.Target.B})
			evs = append(evs, Event{At: usTime(down + f.Duty*f.PeriodUS), Action: restoreOf(kill), A: f.Target.A, B: f.Target.B})
		}
	}
	rng := sim.NewRNG(seed ^ 0xfa17ed)
	for i, b := range s.Bursts {
		kill, err := killFor(b.Kind)
		if err != nil {
			return Script{}, fmt.Errorf("faults: script %q burst %d: %w", s.Name, i, err)
		}
		bmax := b.BMax
		if bmax < 1 {
			bmax = 1
		}
		if b.AMax < 1 || b.AMax > math.MaxInt/bmax || b.K < 1 || b.K > b.AMax*bmax {
			return Script{}, fmt.Errorf("faults: script %q burst %d: k=%d outside box %d×%d",
				s.Name, i, b.K, b.AMax, bmax)
		}
		if b.K > (maxScriptEvents-len(evs))/2 {
			return Script{}, fmt.Errorf("faults: script %q burst %d: k=%d exceeds the %d-event script bound",
				s.Name, i, b.K, maxScriptEvents)
		}
		// k distinct cells of the coordinate box, drawn from the burst's
		// own forked stream so adding a burst does not shift its siblings.
		r := rng.Fork(uint64(i) + 1)
		picked := make(map[int]struct{}, b.K)
		for len(picked) < b.K {
			picked[r.Intn(b.AMax*bmax)] = struct{}{}
		}
		cells := make([]int, 0, b.K)
		for cell := range picked {
			cells = append(cells, cell)
		}
		sort.Ints(cells)
		for _, cell := range cells {
			ev := Event{At: usTime(b.AtUS), Action: kill, A: cell / bmax, B: cell % bmax}
			evs = append(evs, ev)
			if b.RestoreUS > 0 {
				ev.At = usTime(b.AtUS + b.RestoreUS)
				ev.Action = restoreOf(kill)
				evs = append(evs, ev)
			}
		}
	}
	for _, inc := range s.Incasts {
		evs = append(evs, Event{
			At: usTime(inc.AtUS), Action: StartIncast,
			A: inc.Target, Count: inc.Sources, Packets: inc.Packets,
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return Script{Name: s.Name, Events: evs}, nil
}
