package prof

import (
	"runtime"
	"testing"
)

func TestPeakRSSBytes(t *testing.T) {
	peak := PeakRSSBytes()
	if runtime.GOOS != "linux" {
		t.Skipf("no procfs on %s: peak=%d", runtime.GOOS, peak)
	}
	if peak == 0 {
		t.Fatalf("expected nonzero RSS on linux: peak=%d", peak)
	}
	// The reads race against the allocator, so only assert the peak covers
	// a re-read of itself.
	if peak < PeakRSSBytes()/2 {
		t.Fatalf("peak RSS unstable: %d then %d", peak, PeakRSSBytes())
	}
}
