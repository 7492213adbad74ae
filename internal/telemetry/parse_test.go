package telemetry

import (
	"strings"
	"testing"
)

// TestFlightCSVRoundTrip checks that ParseFlightCSV inverts WriteFlightCSV
// exactly, including the phase column — cmd/tracequery's chains are only as
// good as this round trip.
func TestFlightCSVRoundTrip(t *testing.T) {
	recs := []Record{
		{At: 10, Dur: 0, Kind: KindInject, Pkt: 7, Src: 1, Dst: 2},
		{At: 10, Dur: 5, Kind: KindSpan, Phase: PhaseQueue, Pkt: 7, Src: 1, Dst: 2, Loc: -1, Aux: 3},
		{At: 15, Dur: 2, Kind: KindSpan, Phase: PhaseHop, Pkt: 7, Src: 1, Dst: 2, Loc: 0},
		{At: 17, Dur: 0, Kind: KindDeliver, Pkt: 7, Src: 1, Dst: 2},
		{At: 20, Dur: 0, Kind: KindFault, Pkt: 0, Src: -1, Dst: -1, Loc: 4, Aux: 1},
	}
	var sb strings.Builder
	if err := WriteFlightCSV(&sb, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFlightCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("parsed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: parsed %+v, want %+v", i, got[i], recs[i])
		}
	}
	// Pre-span exports (no phase column) must still parse.
	legacy := "at_ps,dur_ps,kind,pkt,src,dst,loc,aux\n10,2,hop,7,1,2,0,3\n"
	got, err = ParseFlightCSV(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	want := Record{At: 10, Dur: 2, Kind: KindHop, Pkt: 7, Src: 1, Dst: 2, Loc: 0, Aux: 3}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("legacy parse: got %+v, want %+v", got, want)
	}
	if _, err := ParseFlightCSV(strings.NewReader("at_ps,dur_ps\n")); err == nil {
		t.Error("missing columns not rejected")
	}
	if _, err := ParseFlightCSV(strings.NewReader("at_ps,dur_ps,kind,pkt,src,dst,loc,aux,phase\n1,1,span,1,0,0,0,0,bogus\n")); err == nil {
		t.Error("unknown phase not rejected")
	}
}

// TestSampledIsDeterministicSlice checks the sampler is a pure function of
// the id with roughly the requested rate on structured ids.
func TestSampledIsDeterministicSlice(t *testing.T) {
	if Sampled(1, 0) {
		t.Error("every=0 must disable sampling")
	}
	n, hits := 10000, 0
	for src := 0; src < 100; src++ {
		for seq := 0; seq < 100; seq++ {
			id := uint64(src+1)<<32 | uint64(seq)
			a, b := Sampled(id, 8), Sampled(id, 8)
			if a != b {
				t.Fatalf("Sampled not deterministic for id %d", id)
			}
			if a {
				hits++
			}
		}
	}
	rate := float64(hits) / float64(n)
	if rate < 0.10 || rate > 0.15 {
		t.Errorf("1-in-8 sampling hit %.3f of structured ids, want ~0.125", rate)
	}
	if !Sampled(42, 1) {
		t.Error("every=1 must trace every packet")
	}
}
