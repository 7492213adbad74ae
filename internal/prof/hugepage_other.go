//go:build !linux

package prof

// AdviseHugePages does nothing off Linux: there is no madvise hint to give.
func AdviseHugePages[T any](s []T) {}
