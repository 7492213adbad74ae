package prof

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// AdviseHugePages asks the kernel to back s's array with transparent huge
// pages (madvise MADV_HUGEPAGE). Call it right after make and before the
// first write, on a table that is large and read at random: one 2 MiB TLB
// entry then covers what 512 base-page entries would, so a random load
// misses the TLB far less often.
//
// Only the huge-page-aligned extents that lie wholly inside the array are
// advised, since those are the only ones the kernel can map with a huge
// page. So a table smaller than one extent costs no system call and leaves
// the heap's mappings unsplit. It is a hint, not a request that can fail:
// a kernel without transparent huge pages is never asked, one with them
// set to never ignores the advice, and the table works the same.
func AdviseHugePages[T any](s []T) {
	var zero T
	size := uintptr(cap(s)) * unsafe.Sizeof(zero)
	_ = adviseHugePages(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), size), hugePageSize())
}

// hugePageSize is the kernel's transparent huge page size in bytes, or 0
// when it has none.
var hugePageSize = sync.OnceValue(func() int {
	b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/hpage_pmd_size")
	if err != nil {
		return 0
	}
	size, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || size&(size-1) != 0 {
		return 0
	}
	return size
})

// adviseHugePages advises the align-aligned extents (align a power of two)
// that lie wholly inside b and returns the kernel's answer, or nil when no
// whole extent does or align is 0.
func adviseHugePages(b []byte, align int) error {
	if align <= 0 {
		return nil
	}
	start := int(uintptr(unsafe.Pointer(unsafe.SliceData(b))))
	lo := -start & (align - 1)              // offset of the first extent
	hi := len(b) - (start+len(b))&(align-1) // offset of the last one's end
	if hi <= lo {
		return nil
	}
	return syscall.Madvise(b[lo:hi], syscall.MADV_HUGEPAGE)
}
