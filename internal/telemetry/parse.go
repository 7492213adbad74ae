package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"baldur/internal/sim"
)

// KindFromString inverts RecordKind.String.
func KindFromString(s string) (RecordKind, bool) {
	for k := KindInject; k <= KindSpan; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// ParseFlightCSV reads a flight-recorder CSV export (WriteFlightCSV's
// format, with or without the trailing phase column of pre-span exports)
// back into records. Timestamps are integer picoseconds.
func ParseFlightCSV(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("telemetry: empty flight CSV")
	}
	header := strings.Split(strings.TrimSpace(sc.Text()), ",")
	col := make(map[string]int, len(header))
	for i, name := range header {
		col[name] = i
	}
	for _, need := range []string{"at_ps", "dur_ps", "kind", "pkt", "src", "dst", "loc", "aux"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("telemetry: flight CSV missing column %q", need)
		}
	}
	phaseCol, hasPhase := col["phase"]
	var recs []Record
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != len(header) {
			return nil, fmt.Errorf("telemetry: flight CSV line %d has %d fields, header has %d",
				line, len(fields), len(header))
		}
		ints := func(name string) (int64, error) {
			v, err := strconv.ParseInt(fields[col[name]], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("telemetry: flight CSV line %d: %s: %w", line, name, err)
			}
			return v, nil
		}
		var rec Record
		at, err := ints("at_ps")
		if err != nil {
			return nil, err
		}
		dur, err := ints("dur_ps")
		if err != nil {
			return nil, err
		}
		rec.At, rec.Dur = sim.Time(at), sim.Duration(dur)
		kind, ok := KindFromString(fields[col["kind"]])
		if !ok {
			return nil, fmt.Errorf("telemetry: flight CSV line %d: unknown kind %q", line, fields[col["kind"]])
		}
		rec.Kind = kind
		pkt, err := strconv.ParseUint(fields[col["pkt"]], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: flight CSV line %d: pkt: %w", line, err)
		}
		rec.Pkt = pkt
		for _, f := range []struct {
			name string
			dst  *int32
		}{{"src", &rec.Src}, {"dst", &rec.Dst}, {"loc", &rec.Loc}, {"aux", &rec.Aux}} {
			v, err := ints(f.name)
			if err != nil {
				return nil, err
			}
			*f.dst = int32(v)
		}
		if hasPhase && fields[phaseCol] != "" {
			rec.Phase = PhaseFromString(fields[phaseCol])
			if rec.Phase == PhaseNone {
				return nil, fmt.Errorf("telemetry: flight CSV line %d: unknown phase %q", line, fields[phaseCol])
			}
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}
