package main

import (
	"runtime"
	"slices"
	"time"
)

// A shared VM's speed moves by tens of percent over seconds to minutes with
// its neighbours' load, for the benchmark's single-threaded ops as much as
// for a plain CPU loop (README.md, Steadiness). So a timed run also times a
// fixed reference kernel at refSamples points spread over its measured
// phase, and reports its timings scaled by refNominal ÷ the kernel's median
// time: what the run would have measured on a machine where the kernel
// takes refNominal. The kernel uses only the standard library, so no change
// to the program under test moves it.
const (
	refSamples = 25
	// refNominal is about the kernel's median time on an unloaded 2-vCPU
	// VM, so that scaled timings stay close to raw ones there.
	refNominal = 2 * time.Millisecond
)

// refKernel is the reference work: hash-map updates, a float relaxation
// over a slice and a sort, on buffers allocated once, so a run allocates
// nothing.
type refKernel struct {
	m    map[uint64]uint64
	a, s []float64
	sink uint64
}

func newRefKernel() *refKernel {
	return &refKernel{m: make(map[uint64]uint64, 1<<15), a: make([]float64, 1<<14), s: make([]float64, 1<<13)}
}

func (k *refKernel) run() {
	clear(k.m)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for range 30000 {
		v := next()
		k.m[v&0x7fff] += v
	}
	for i := range k.a {
		k.a[i] = float64((i * 7919) % 1009)
	}
	for p := range 6 {
		for i := 1; i < len(k.a); i++ {
			if v := k.a[i-1] + float64(p&3); v < k.a[i] {
				k.a[i] = v
			}
		}
	}
	for i := range k.s {
		k.s[i] = float64(next() >> 11)
	}
	slices.Sort(k.s)
	k.sink += uint64(len(k.m)) + uint64(k.a[len(k.a)-1]) + uint64(k.s[0])
}

// sample runs a garbage collection, so that none of the program's GC work
// lands inside the kernel, then runs the kernel three times. It returns
// the median run and the three runs' total; the collection is the
// program's work and stays in the phase's time.
func (k *refKernel) sample() (median, total time.Duration) {
	runtime.GC()
	var d [3]time.Duration
	for i := range d {
		start := time.Now()
		k.run()
		d[i] = time.Since(start)
		total += d[i]
	}
	slices.Sort(d[:])
	return d[1], total
}
