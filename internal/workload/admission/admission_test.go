package admission

import (
	"testing"

	"baldur/internal/sim"
)

// newBucket builds a token_bucket instance refilling 1 byte/ns per source
// (8 Gbit/s over sources) with a 1 KB burst.
func newBucket(t *testing.T, sources int) Policy {
	t.Helper()
	p := map[string]float64{"rate_gbps": 8 * float64(sources), "burst_kb": 1}
	pol, err := New("token_bucket", p, sources, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// admit offers one flow of bytes arriving at ns and checks the verdict.
func admit(t *testing.T, pol Policy, ns int64, bytes int64, want bool) {
	t.Helper()
	if got := pol.Admit(bytes, sim.Time(ns*int64(sim.Nanosecond))); got != want {
		t.Fatalf("Admit(%d B at %d ns) = %v, want %v", bytes, ns, got, want)
	}
}

func TestTokenBucketRefillsOverTime(t *testing.T) {
	tb := newBucket(t, 1)
	admit(t, tb, 0, 1024, true) // a full bucket admits its whole depth
	admit(t, tb, 0, 1, false)   // and is then empty
	admit(t, tb, 100, 100, true)
	admit(t, tb, 100, 1, false)
	admit(t, tb, 400, 300, true)
}

func TestTokenBucketRateSplitsAcrossSources(t *testing.T) {
	// The tenant-aggregate rate is divided evenly: with 4 sources each
	// bucket refills 1 byte/ns, not 4.
	tb := newBucket(t, 4)
	admit(t, tb, 0, 1024, true)
	admit(t, tb, 100, 101, false)
	admit(t, tb, 100, 100, true)
}

func TestTokenBucketBurstCap(t *testing.T) {
	tb := newBucket(t, 1)
	admit(t, tb, 0, 1024, true)
	// A millisecond idle would refill a megabyte; the bucket holds 1 KB.
	admit(t, tb, 1_000_000, 1024, true)
	admit(t, tb, 1_000_000, 1, false)
}

func TestTokenBucketRejectsFlowLargerThanBucket(t *testing.T) {
	tb := newBucket(t, 1)
	admit(t, tb, 0, 1025, false)
	// A rejected flow takes no tokens: the full depth is still there.
	admit(t, tb, 0, 1024, true)
}

func TestAlwaysAndRejectAll(t *testing.T) {
	always, err := New("always", nil, 4, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	none, err := New("reject_all", nil, 4, 100e9)
	if err != nil {
		t.Fatal(err)
	}
	for _, bytes := range []int64{1, 1 << 20, 1 << 40} {
		admit(t, always, 0, bytes, true)
		admit(t, none, 0, bytes, false)
	}
}
