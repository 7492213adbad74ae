package prof

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestAdviseHugePagesFlagsTheMapping checks that an advised table of four
// huge pages (8 MiB on x86-64) lies in a mapping that carries the kernel's
// hg (MADV_HUGEPAGE) flag. Whether the kernel then backs it with huge pages
// (AnonHugePages) depends on free memory and fragmentation; the flag does
// not.
func TestAdviseHugePagesFlagsTheMapping(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || bytes.Contains(mode, []byte("[never]")) || hugePageSize() == 0 {
		t.Skipf("transparent huge pages unavailable (mode %q, %v)", bytes.TrimSpace(mode), err)
	}
	table := make([]byte, 4*hugePageSize())
	AdviseHugePages(table)
	// The middle of a four-extent table lies inside its aligned extents
	// wherever the allocator placed it.
	addr := uintptr(unsafe.Pointer(&table[len(table)/2]))
	flags := vmFlags(t, addr)
	runtime.KeepAlive(table)
	if !strings.Contains(" "+flags+" ", " hg ") {
		t.Errorf("mapping at %#x has VmFlags %q, want hg", addr, flags)
	}
}

// vmFlags returns the VmFlags line of the /proc/self/smaps entry whose
// address range holds addr.
func vmFlags(t *testing.T, addr uintptr) string {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	inside := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if flags, ok := strings.CutPrefix(line, "VmFlags:"); ok {
			if inside {
				return strings.TrimSpace(flags)
			}
			continue
		}
		// A mapping's header starts with its "lo-hi" range in hex; the
		// field lines start with a name and a colon.
		span, _, _ := strings.Cut(line, " ")
		loS, hiS, ok := strings.Cut(span, "-")
		if !ok || strings.HasSuffix(span, ":") {
			continue
		}
		lo, err1 := strconv.ParseUint(loS, 16, 64)
		hi, err2 := strconv.ParseUint(hiS, 16, 64)
		if err1 == nil && err2 == nil {
			inside = uint64(addr) >= lo && uint64(addr) < hi
		}
	}
	t.Fatalf("no smaps mapping holds %#x (%v)", addr, sc.Err())
	return ""
}

// TestAdviseHugePagesNoWholeExtent checks that tables holding no whole
// aligned extent are left alone, without error: empty ones, ones smaller
// than a page, and any table when the kernel reports no huge page size.
func TestAdviseHugePagesNoWholeExtent(t *testing.T) {
	page := os.Getpagesize()
	for _, b := range [][]byte{nil, {}, make([]byte, 100), make([]byte, page-1)} {
		if err := adviseHugePages(b, page); err != nil {
			t.Errorf("len %d: %v", len(b), err)
		}
		AdviseHugePages(b)
	}
	if err := adviseHugePages(make([]byte, 4<<20), 0); err != nil {
		t.Errorf("no huge page size: %v", err)
	}
	AdviseHugePages([]struct{}{})
	AdviseHugePages(make([]struct{}, 10))
}
