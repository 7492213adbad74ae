package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"baldur/internal/sim"
)

// Text trace format, for saving generated workloads and replaying external
// ones (a portable stand-in for DUMPI):
//
//	# comments and blank lines are ignored
//	workload <name> ranks <N> [mtu <bytes>]
//	rank <id>
//	  send <peer> <bytes>
//	  recv <peer> <bytes>
//	  compute <nanoseconds>
//
// Ranks may appear in any order; a rank with no section has an empty
// program. Read refuses, and Save will not write, a trace outside the bounds
// below: past them a trace would corrupt a replay (a wrapped packet count, a
// duration that does not fit sim.Duration) or exhaust memory before the
// first rank is read.
const (
	// maxRanks is the largest rank count, 2^20: the paper's largest
	// network.
	maxRanks = 1 << 20
	// maxMessageBytes is the largest send or recv, 1 TiB: at any MTU its
	// packet count fits an int with room to sum many messages.
	maxMessageBytes = 1 << 40
	// maxComputeNS is the longest compute op, 1000 s: it fits sim.Duration,
	// and every duration up to it survives Save and Read to the picosecond.
	maxComputeNS = 1e12
)

// inBounds reports whether v is a valid operand of the directive: a rank
// count of 1 to maxRanks, a send or recv of 1 B to maxMessageBytes, or a
// compute of 0 to maxComputeNS (NaN fails every comparison).
func inBounds(directive string, v float64) bool {
	switch directive {
	case "ranks":
		return v >= 1 && v <= maxRanks
	case "send", "recv":
		return v >= 1 && v <= maxMessageBytes
	case "compute":
		return v >= 0 && v <= maxComputeNS
	}
	return false
}

// directives names each op kind's directive.
var directives = [...]string{OpSend: "send", OpRecv: "recv", OpCompute: "compute"}

// Save serializes the workload in the text trace format. It refuses,
// writing nothing, a workload Read would refuse.
func (w *Workload) Save(out io.Writer) error {
	if err := w.saveable(); err != nil {
		return err
	}
	bw := bufio.NewWriter(out)
	fmt.Fprintf(bw, "workload %s ranks %d", sanitizeName(w.Name), len(w.Programs))
	if w.PacketSize != 0 {
		fmt.Fprintf(bw, " mtu %d", w.PacketSize)
	}
	fmt.Fprintln(bw)
	for rank, prog := range w.Programs {
		if len(prog) == 0 {
			continue
		}
		fmt.Fprintf(bw, "rank %d\n", rank)
		for _, op := range prog {
			if op.Kind == OpCompute {
				fmt.Fprintf(bw, "  compute %s\n", strconv.FormatFloat(op.Dur.Nanoseconds(), 'f', -1, 64))
			} else {
				fmt.Fprintf(bw, "  %s %d %d\n", directives[op.Kind], op.Peer, op.Bytes)
			}
		}
	}
	return bw.Flush()
}

// saveable applies Read's checks to what Save would write: the format's
// bounds on every operand, a positive mtu, and Validate.
func (w *Workload) saveable() error {
	if !inBounds("ranks", float64(len(w.Programs))) || w.PacketSize < 0 {
		return fmt.Errorf("trace %s: %d ranks or mtu %d outside the format's bounds", w.Name, len(w.Programs), w.PacketSize)
	}
	for rank, prog := range w.Programs {
		for i, op := range prog {
			if int(op.Kind) >= len(directives) {
				return fmt.Errorf("trace: unknown op kind %d", op.Kind)
			}
			v := float64(op.Bytes)
			if op.Kind == OpCompute {
				v = op.Dur.Nanoseconds()
			}
			if !inBounds(directives[op.Kind], v) {
				return fmt.Errorf("trace %s: rank %d op %d: %s operand %v outside the format's bounds",
					w.Name, rank, i, directives[op.Kind], v)
			}
		}
	}
	return w.Validate()
}

// sanitizeName turns runs of whitespace into underscores, so the name stays
// one header field.
func sanitizeName(name string) string {
	if name = strings.Join(strings.Fields(name), "_"); name == "" {
		return "unnamed"
	}
	return name
}

// Read parses a workload from the text trace format and validates it. It
// refuses rank counts, message sizes and compute durations beyond the
// format's bounds.
func Read(in io.Reader) (*Workload, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var w *Workload
	cur := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "workload":
			if w != nil {
				return nil, fmt.Errorf("trace: line %d: duplicate workload header", lineNo)
			}
			if (len(fields) != 4 && len(fields) != 6) || fields[2] != "ranks" || (len(fields) == 6 && fields[4] != "mtu") {
				return nil, fmt.Errorf("trace: line %d: want 'workload <name> ranks <N> [mtu <bytes>]'", lineNo)
			}
			ranks, err := strconv.Atoi(fields[3])
			if err != nil || !inBounds("ranks", float64(ranks)) {
				return nil, fmt.Errorf("trace: line %d: bad rank count %q", lineNo, fields[3])
			}
			w = &Workload{Name: fields[1], Programs: make([]Program, ranks)}
			if len(fields) == 6 {
				mtu, err := strconv.Atoi(fields[5])
				if err != nil || mtu <= 0 {
					return nil, fmt.Errorf("trace: line %d: bad mtu %q", lineNo, fields[5])
				}
				w.PacketSize = mtu
			}
		case "rank":
			if w == nil {
				return nil, fmt.Errorf("trace: line %d: rank before workload header", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: want 'rank <id>'", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= len(w.Programs) {
				return nil, fmt.Errorf("trace: line %d: rank %q out of range", lineNo, fields[1])
			}
			cur = id
		case "send", "recv":
			if w == nil || cur < 0 {
				return nil, fmt.Errorf("trace: line %d: op outside a rank section", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: want '%s <peer> <bytes>'", lineNo, fields[0])
			}
			peer, err1 := strconv.Atoi(fields[1])
			bytes, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || !inBounds(fields[0], float64(bytes)) {
				return nil, fmt.Errorf("trace: line %d: bad operands", lineNo)
			}
			kind := OpSend
			if fields[0] == "recv" {
				kind = OpRecv
			}
			w.Programs[cur] = append(w.Programs[cur], Op{Kind: kind, Peer: peer, Bytes: bytes})
		case "compute":
			if w == nil || cur < 0 {
				return nil, fmt.Errorf("trace: line %d: op outside a rank section", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: want 'compute <ns>'", lineNo)
			}
			ns, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || !inBounds("compute", ns) {
				return nil, fmt.Errorf("trace: line %d: bad duration %q", lineNo, fields[1])
			}
			w.Programs[cur] = append(w.Programs[cur], Op{Kind: OpCompute, Dur: sim.Nanoseconds(ns)})
		default:
			return nil, fmt.Errorf("trace: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if w == nil {
		return nil, fmt.Errorf("trace: empty input")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
