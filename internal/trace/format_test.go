package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTripAllGenerators(t *testing.T) {
	for _, name := range Names() {
		w := ByName(name, 32, Options{Seed: 2})
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if got.Name != w.Name || len(got.Programs) != len(w.Programs) {
			t.Fatalf("%s: header mismatch: %s/%d vs %s/%d",
				name, got.Name, len(got.Programs), w.Name, len(w.Programs))
		}
		for rank := range w.Programs {
			if len(got.Programs[rank]) != len(w.Programs[rank]) {
				t.Fatalf("%s rank %d: %d ops vs %d", name, rank,
					len(got.Programs[rank]), len(w.Programs[rank]))
			}
			for i, op := range w.Programs[rank] {
				g := got.Programs[rank][i]
				if g.Kind != op.Kind || g.Peer != op.Peer || g.Bytes != op.Bytes {
					t.Fatalf("%s rank %d op %d: %+v vs %+v", name, rank, i, g, op)
				}
				if op.Kind == OpCompute && g.Dur != op.Dur {
					t.Fatalf("%s rank %d op %d: dur %v vs %v", name, rank, i, g.Dur, op.Dur)
				}
			}
		}
	}
}

func TestReadHandComposed(t *testing.T) {
	src := `
# a 2-rank ping
workload ping ranks 2 mtu 256
rank 0
  send 1 1024
  recv 1 1024
rank 1
  recv 0 1024
  compute 500
  send 0 1024
`
	w, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "ping" || len(w.Programs) != 2 || w.PacketSize != 256 {
		t.Fatalf("header: %+v", w)
	}
	if len(w.Programs[0]) != 2 || len(w.Programs[1]) != 3 {
		t.Fatalf("programs: %d/%d ops", len(w.Programs[0]), len(w.Programs[1]))
	}
	if w.Programs[1][1].Kind != OpCompute || w.Programs[1][1].Dur.Nanoseconds() != 500 {
		t.Errorf("compute op: %+v", w.Programs[1][1])
	}
	// 1024 B at mtu 256 = 4 packets per message.
	if got := w.packets(1024); got != 4 {
		t.Errorf("packets(1024) = %d, want 4", got)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no header":        "rank 0\n send 1 10\n",
		"bad rank count":   "workload x ranks zero\n",
		"rank oob":         "workload x ranks 2\nrank 5\n",
		"op outside rank":  "workload x ranks 2\nsend 1 10\n",
		"bad op operands":  "workload x ranks 2\nrank 0\nsend one 10\n",
		"unknown op":       "workload x ranks 2\nrank 0\nfancy 1 2\n",
		"unmatched recv":   "workload x ranks 2\nrank 0\nrecv 1 512\n",
		"duplicate header": "workload x ranks 2\nworkload y ranks 2\n",
		"negative compute": "workload x ranks 2\nrank 0\ncompute -5\n",
		"bad mtu":          "workload x ranks 2 mtu zero\n",
		"NaN compute":      "workload x ranks 2\nrank 0\ncompute NaN\n",
		"infinite compute": "workload x ranks 2\nrank 0\ncompute +Inf\n",
		"huge compute":     "workload x ranks 2\nrank 0\ncompute 1e300\n",
		"compute > 1000 s": "workload x ranks 2\nrank 0\ncompute 1000000000000.001\n",
		"huge send":        "workload x ranks 2\nrank 0\nsend 1 9223372036854775807\n",
		"send > 1 TiB":     "workload x ranks 2\nrank 0\nsend 1 1099511627777\n",
		"ranks > 2^20":     "workload x ranks 1048577\n",
		"unknown mtu key":  "workload x ranks 2 MTU 256\n",
		"mtu without size": "workload x ranks 2 mtu\n",
		"header junk":      "workload x ranks 2 mtu 256 junk\n",
	}
	for name, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteSanitizesName(t *testing.T) {
	w := &Workload{Name: "my trace", Programs: make([]Program, 1)}
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "workload my_trace ranks 1") {
		t.Errorf("output: %q", buf.String())
	}
	empty := &Workload{Programs: make([]Program, 1)}
	buf.Reset()
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "workload unnamed") {
		t.Errorf("output: %q", buf.String())
	}
}

func TestReadThenReplay(t *testing.T) {
	// A loaded trace must replay exactly like the generated one.
	w := AMG(16, Options{Iterations: 1})
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := baldurNet(t, 16)
	rep, err := NewReplayer(n, loaded)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Run()
	if !st.Completed {
		t.Error("loaded trace replay incomplete")
	}
}

// FuzzReadTrace: any input comes back as a workload or an error, never a
// panic, and an accepted workload survives Save and Read unchanged.
func FuzzReadTrace(f *testing.F) {
	for _, name := range Names() {
		var buf bytes.Buffer
		if err := ByName(name, 8, Options{Seed: 1}).Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	// Sub-nanosecond compute and a short last packet.
	f.Add("workload w ranks 2 mtu 100\nrank 0\n  send 1 250\n  compute 0.5\nrank 1\n  recv 0 250\n  compute 1000000000000\n")
	f.Fuzz(func(t *testing.T, src string) {
		w, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := w.Save(&buf); err != nil {
			t.Fatalf("saving an accepted workload: %v", err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("reading back a saved workload: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("workload changed across Save and Read:\nread:  %+v\nagain: %+v", w, got)
		}
	})
}
