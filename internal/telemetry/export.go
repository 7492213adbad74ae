package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"baldur/internal/sim"
)

// chromeEvent is one entry of the Chrome trace-event "traceEvents" array.
// Fields follow the Trace Event Format; ts/dur are in microseconds.
type chromeEvent struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  *float64               `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int32                  `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Cat  string                 `json:"cat,omitempty"`
	ID   *uint64                `json:"id,omitempty"`
	BP   string                 `json:"bp,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Region is a named [From, To) interval of virtual time rendered as a shaded
// slice on a dedicated track — campaign traces use it to mark unavailability
// windows detected by the fault observer.
type Region struct {
	Name     string
	From, To sim.Time
}

// regionTid is the reserved thread id of the region track. Node ids are
// non-negative in every model, so the track never collides with a real node.
const regionTid int32 = -1

// WriteChromeTrace exports recs as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. Tracks: pid 0 is the
// network; each source node is one thread (tid). Hops and lifecycle spans
// render as complete ("X") slices; everything else renders as thread-scoped
// instants. Traced packets additionally get flow arrows (ph "s"/"f" keyed by
// packet id) from their inject to their deliver instant, so Perfetto links
// each sampled packet's chain across time.
func WriteChromeTrace(w io.Writer, recs []Record, label string) error {
	return WriteChromeTraceRegions(w, recs, nil, label)
}

// WriteChromeTraceRegions is WriteChromeTrace plus shaded regions on a
// dedicated track (tid -1).
func WriteChromeTraceRegions(w io.Writer, recs []Record, regions []Region, label string) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := func(ev *chromeEvent, first bool) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		_, err = bw.Write(b)
		return err
	}
	if label == "" {
		label = "baldur"
	}
	if err := enc(&chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]interface{}{"name": label},
	}, true); err != nil {
		return err
	}
	// One thread per source node, named so Perfetto's track list reads well.
	tids := map[int32]bool{}
	for i := range recs {
		tids[recs[i].Src] = true
	}
	if len(regions) > 0 {
		tids[regionTid] = true
	}
	sorted := make([]int32, 0, len(tids))
	for tid := range tids {
		sorted = append(sorted, tid)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, tid := range sorted {
		name := fmt.Sprintf("node %d", tid)
		if tid == regionTid {
			name = "availability"
		}
		if err := enc(&chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]interface{}{"name": name},
		}, false); err != nil {
			return err
		}
	}
	const toUS = 1e-6 // engine ticks are picoseconds
	for _, reg := range regions {
		dur := float64(reg.To.Sub(reg.From)) * toUS
		if err := enc(&chromeEvent{
			Name: reg.Name, Ph: "X", Pid: 0, Tid: regionTid,
			Ts: float64(reg.From) * toUS, Dur: &dur,
		}, false); err != nil {
			return err
		}
	}
	// Traced packets (the ones with lifecycle spans) get flow arrows from
	// inject to deliver, keyed by packet id.
	traced := map[uint64]bool{}
	for i := range recs {
		if recs[i].Kind == KindSpan {
			traced[recs[i].Pkt] = true
		}
	}
	for i := range recs {
		r := &recs[i]
		ev := chromeEvent{
			Name: r.Kind.String(),
			Ts:   float64(r.At) * toUS,
			Pid:  0,
			Tid:  r.Src,
			Args: map[string]interface{}{
				"pkt": r.Pkt, "src": r.Src, "dst": r.Dst,
				"loc": r.Loc, "aux": r.Aux,
			},
		}
		switch {
		case r.Kind == KindSpan:
			ev.Ph = "X"
			dur := float64(r.Dur) * toUS
			ev.Dur = &dur
			ev.Name = r.Phase.String()
			ev.Args["phase"] = r.Phase.String()
		case r.Kind == KindHop && r.Dur > 0:
			ev.Ph = "X"
			dur := float64(r.Dur) * toUS
			ev.Dur = &dur
			ev.Name = fmt.Sprintf("hop@%d", r.Loc)
		default:
			ev.Ph = "i"
			ev.S = "t"
		}
		if err := enc(&ev, false); err != nil {
			return err
		}
		if traced[r.Pkt] && (r.Kind == KindInject || r.Kind == KindDeliver) {
			id := r.Pkt
			flow := chromeEvent{
				Name: "pkt", Cat: "pkt", Ph: "s", ID: &id,
				Ts: ev.Ts, Pid: 0, Tid: r.Src,
			}
			if r.Kind == KindDeliver {
				flow.Ph = "f"
				flow.BP = "e"
			}
			if err := enc(&flow, false); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFlightCSV exports recs in the compact CSV form:
// at_ps,dur_ps,kind,pkt,src,dst,loc,aux,phase. The phase column is empty for
// non-span records, so pre-span consumers that split on commas still see
// their columns in place.
func WriteFlightCSV(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("at_ps,dur_ps,kind,pkt,src,dst,loc,aux,phase\n"); err != nil {
		return err
	}
	for i := range recs {
		r := &recs[i]
		_, err := fmt.Fprintf(bw, "%d,%d,%s,%d,%d,%d,%d,%d,%s\n",
			int64(r.At), int64(r.Dur),
			r.Kind.String(), r.Pkt, r.Src, r.Dst, r.Loc, r.Aux, r.Phase.String())
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteMetricsCSV exports the sampled time series: one row per interval with
// the counter deltas and gauge levels, plus the engine event/epoch deltas.
func WriteMetricsCSV(w io.Writer, reg *Registry, samples []Sample) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("at_ps,events,epochs"); err != nil {
		return err
	}
	for _, name := range reg.Names() {
		if _, err := bw.WriteString("," + name); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	for i := range samples {
		s := &samples[i]
		if _, err := fmt.Fprintf(bw, "%d,%d,%d", int64(s.At), s.Events, s.Epochs); err != nil {
			return err
		}
		for _, v := range s.Values {
			if _, err := fmt.Fprintf(bw, ",%d", v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
