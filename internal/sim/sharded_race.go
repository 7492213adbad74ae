//go:build race

package sim

// Under the race detector every multi-shard epoch is dispatched on worker
// goroutines, whatever its size, so -race runs keep checking the
// concurrent path that production uses for large epochs.
func init() { parallelMin = 0 }
