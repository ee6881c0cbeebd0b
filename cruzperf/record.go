package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"cruz"
	"cruz/internal/sim"
)

// Host cost is the process's CPU time (user + system, all threads, GC
// included): what the simulator costs to run, and steadier than wall
// time on a shared machine. The wall clock only bounds how long the
// benchmark keeps repeating iterations. Neither reading ever enters the
// simulation.

func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func cpuSince(start float64) float64 { return cpuNow() - start }

func wallNow() time.Time {
	return time.Now() //cruzvet:allow nodeterminism the wall clock only bounds how long iterations repeat; it never enters the simulation
}

func wallSince(t time.Time) float64 {
	return time.Since(t).Seconds() //cruzvet:allow nodeterminism the wall clock only bounds how long iterations repeat; it never enters the simulation
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// opKinds are the operations counted in attempted/failed, in report
// order.
var opKinds = []string{"ckpt", "restart", "migrate", "recover", "durable", "kv", "integrity"}

// record collects one iteration's measurements: virtual-time samples
// and deterministic counts (both must repeat exactly for a seed), host
// time per facade call, and op outcomes.
type record struct {
	samples   map[string][]float64
	counts    map[string]float64
	calls     map[string][]float64 // host CPU seconds per call
	runVirt   sim.Duration         // virtual time advanced by "run" calls
	attempted map[string]int
	failed    map[string]int
	errs      []string
	recovery  *cruz.RecoveryResult

	// heapPoints enables peak-heap sampling (untraced runs only).
	heapPoints bool
	peakHeap   float64 // MiB
	gcSec      float64 // host CPU spent in the sampling collections
}

func newRecord() *record {
	return &record{
		samples:   map[string][]float64{},
		counts:    map[string]float64{},
		calls:     map[string][]float64{},
		attempted: map[string]int{},
		failed:    map[string]int{},
	}
}

func (r *record) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *record) count(name string, v float64) { r.counts[name] += v }

// op accounts one operation and reports whether it succeeded.
func (r *record) op(kind string, err error) bool {
	r.attempted[kind]++
	if err != nil {
		r.failed[kind]++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, fmt.Sprintf("%s: %v", kind, err))
		}
		return false
	}
	return true
}

func (r *record) ops(kind string, attempted, failed int) {
	r.attempted[kind] += attempted
	r.failed[kind] += failed
	if failed > 0 && len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %d of %d failed", kind, failed, attempted))
	}
}

func (r *record) call(kind string, start float64, virt sim.Duration) {
	r.calls[kind] = append(r.calls[kind], cpuSince(start))
	if kind == "run" {
		r.runVirt += virt
	}
}

// heapPoint measures the live Go heap after an operation: it forces a
// collection, so the reading is the memory the simulation actually
// holds at a deterministic point rather than garbage that happens to
// await the collector. The collection's CPU time is kept out of the
// timed phase.
func (r *record) heapPoint() {
	if !r.heapPoints {
		return
	}
	start := cpuNow()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if mb := float64(s[0].Value.Uint64()) / (1 << 20); mb > r.peakHeap {
		r.peakHeap = mb
	}
	r.gcSec += cpuSince(start)
}

func (r *record) totals() (attempted, failed int) {
	for _, k := range opKinds {
		attempted += r.attempted[k]
		failed += r.failed[k]
	}
	return
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}
