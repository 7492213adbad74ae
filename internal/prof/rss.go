package prof

import (
	"bytes"
	"os"
	"strconv"
)

// PeakRSSBytes returns the process's peak resident set size in bytes, read
// from /proc/self/status (VmHWM, the kernel's resident high-water mark).
// Unlike Go's heap accounting it includes goroutine stacks, the runtime
// itself and any non-heap mappings, so it is the number an operator's
// memory limit actually bites on. Returns 0 on platforms without procfs —
// callers should treat 0 as "unavailable", not "tiny".
func PeakRSSBytes() uint64 {
	const field = "VmHWM:"
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(field)) {
			continue
		}
		// Format: "VmHWM:   123456 kB"
		f := bytes.Fields(line[len(field):])
		if len(f) < 1 {
			return 0
		}
		kb, err := strconv.ParseUint(string(f[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
