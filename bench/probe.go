package main

import (
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// probeRefMs is the median probe time on the calibration machine (a
// shared 2-vCPU Xeon VM): normalized host times read in that machine's
// milliseconds.
const probeRefMs = 20.0

// probe times a fixed kernel that touches none of the stack between
// reps. Host time on a shared machine drifts by tens of percent over
// minutes as neighbours contend for caches and memory; the kernel
// drifts with it, so host times scaled by its median speed compare
// across runs far better than raw ones.
type probe struct {
	samples []float64 // ms
	last    time.Time
	sink    uint64
}

// sample runs the kernel once: build a map, sort, allocate 3 MB of
// nodes and chase pointers through them in a random cycle. It starts on
// a freshly collected heap and runs with the collector off, so a GC
// setting of the code under test cannot change it, and it keeps nothing
// alive afterwards, so it moves neither the workloads' GC pacing nor
// their peak RSS.
func (p *probe) sample() {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n = 50000
	r := rand.New(rand.NewPCG(1, 2))
	t0 := time.Now()
	m := make(map[uint64]int)
	xs := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v := r.Uint64()
		m[v] = i
		xs = append(xs, v)
	}
	slices.Sort(xs)
	type node struct {
		next *node
		v    [7]uint64
	}
	nodes := make([]node, n)
	order := r.Perm(n)
	for i, o := range order {
		nodes[o].next = &nodes[order[(i+1)%n]]
		nodes[o].v[0] = xs[i]
	}
	at := &nodes[0]
	for i := 0; i < 4*n; i++ {
		at = at.next
	}
	p.sink += uint64(len(m)) + at.v[0]
	p.last = time.Now()
	p.samples = append(p.samples, float64(p.last.Sub(t0))/float64(time.Millisecond))
}

// maybe samples when half a second has passed since the last sample,
// so short reps pay for a probe only every few reps.
func (p *probe) maybe() {
	if time.Since(p.last) >= 500*time.Millisecond {
		p.sample()
	}
}

// scale converts a host time measured in this run to the calibration
// machine's: multiply times by it, divide rates by it.
func (p *probe) scale() float64 {
	return probeRefMs / median(p.samples)
}
