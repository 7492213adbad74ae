// Package prof wires the conventional -cpuprofile / -memprofile flags —
// plus -blockprofile, -mutexprofile and -goroutineprofile for inspecting
// sharded-engine barrier contention — into the command-line tools so
// simulator hot paths can be inspected with `go tool pprof` without a test
// harness. It also holds the process-level memory helpers the simulator
// itself uses: the peak-RSS probe and the huge-page hint for its large
// tables. Importing it registers no flags; a tool opts in with Flags.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// The profile destinations; empty (no profile) unless Flags registered them
// and the command line set them.
var cpu, mem, block, mutex, goroutine = new(string), new(string), new(string), new(string), new(string)

// Flags registers the profiling flags on the command line and returns the
// function that starts profiling. Call Flags before flag.Parse and the
// returned start after it, deferring the stop function start returns.
func Flags() (start func() (stop func())) {
	flag.StringVar(cpu, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(mem, "memprofile", "", "write a heap profile to this file at exit")
	flag.StringVar(block, "blockprofile", "", "write a goroutine blocking profile to this file at exit (enables block sampling)")
	flag.StringVar(mutex, "mutexprofile", "", "write a mutex contention profile to this file at exit (enables mutex sampling)")
	flag.StringVar(goroutine, "goroutineprofile", "", "write a goroutine dump to this file at exit")
	return startProfiles
}

// startProfiles begins CPU profiling if -cpuprofile was given and enables
// block / mutex sampling only when the corresponding flags request a
// profile (the runtime samplers are not free, so they stay off otherwise).
// The returned stop writes every requested exit-time profile.
func startProfiles() (stop func()) {
	if *block != "" {
		// Rate 1 records every blocking event; barrier waits in the
		// sharded engine are long enough that sampling them all is cheap.
		runtime.SetBlockProfileRate(1)
	}
	if *mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if *cpu != "" {
		f, err := os.Create(*cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		return func() {
			pprof.StopCPUProfile()
			f.Close()
			writeExitProfiles()
		}
	}
	return writeExitProfiles
}

func writeExitProfiles() {
	writeHeap()
	writeLookup("block", *block)
	writeLookup("mutex", *mutex)
	writeLookup("goroutine", *goroutine)
}

func writeHeap() {
	if *mem == "" {
		return
	}
	f, err := os.Create(*mem)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC() // materialize accurate live-heap numbers
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}

// writeLookup dumps a named runtime profile (block, mutex, goroutine) in
// pprof's debug=0 wire format, ready for `go tool pprof`.
func writeLookup(name, path string) {
	if path == "" {
		return
	}
	p := pprof.Lookup(name)
	if p == nil {
		fatal(fmt.Errorf("unknown profile %q", name))
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := p.WriteTo(f, 0); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profile:", err)
	os.Exit(1)
}
