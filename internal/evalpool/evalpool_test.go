package evalpool

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/model"
)

// figurePointSets returns the exact point sets behind Fig. 4(a),
// Fig. 5(a), and Fig. 6 — the sweeps the determinism guarantee is
// stated over.
func figurePointSets() map[string][]Point {
	points := func(wl core.Workload, chips []int) []Point {
		out := make([]Point, len(chips))
		for i, n := range chips {
			sys := core.DefaultSystem(n)
			out[i] = Point{System: sys, Workload: wl}
		}
		return out
	}
	tiny := model.TinyLlama42M()
	scaled := model.TinyLlamaScaled64()

	fig5a := points(core.Workload{Model: tiny, Mode: model.Autoregressive}, []int{1, 2, 4, 8})
	fig5a = append(fig5a,
		points(core.Workload{Model: scaled, Mode: model.Autoregressive}, []int{8, 16, 32, 64})...)

	fig6 := points(core.Workload{Model: scaled, Mode: model.Autoregressive},
		[]int{1, 2, 4, 8, 16, 32, 64})
	fig6 = append(fig6,
		points(core.Workload{Model: scaled, Mode: model.Prompt},
			[]int{1, 2, 4, 8, 16, 32, 64})...)

	return map[string][]Point{
		"Fig4a": points(core.Workload{Model: tiny, Mode: model.Autoregressive}, []int{1, 2, 4, 8}),
		"Fig5a": fig5a,
		"Fig6":  fig6,
	}
}

// TestDeterminismAcrossWorkerCounts runs the figure point sets with 1
// and 8 workers and requires identical reports.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	for name, points := range figurePointSets() {
		t.Run(name, func(t *testing.T) {
			serial, err := New(1).Map(points)
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := New(8).Map(points)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial) != len(pooled) {
				t.Fatalf("length mismatch: %d vs %d", len(serial), len(pooled))
			}
			for i := range serial {
				if !reflect.DeepEqual(serial[i], pooled[i]) {
					t.Fatalf("point %d: workers=1 and workers=8 reports differ:\n%+v\nvs\n%+v",
						i, serial[i], pooled[i])
				}
			}
		})
	}
}

// serialSweep is the serial reference path the pool is held to:
// core.Run in a loop, one report per chip count, in order.
func serialSweep(t *testing.T, base core.System, wl core.Workload, chips []int) []*core.Report {
	t.Helper()
	out := make([]*core.Report, len(chips))
	for i, n := range chips {
		sys := base
		sys.Chips = n
		rep, err := core.Run(sys, wl)
		if err != nil {
			t.Fatalf("%d chips: %v", n, err)
		}
		out[i] = rep
	}
	return out
}

// TestPoolMatchesSerial checks the engine against the serial reference
// path: byte-identical reports in the same order.
func TestPoolMatchesSerial(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	chips := []int{1, 2, 4, 8}

	serial := serialSweep(t, core.DefaultSystem(1), wl, chips)
	pooled, err := New(8).Eval(core.DefaultSystem(1), wl, chips)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], pooled[i]) {
			t.Fatalf("chips=%d: pooled report differs from the serial reference:\n%+v\nvs\n%+v",
				chips[i], serial[i], pooled[i])
		}
	}
}

// TestCacheMemoizes requires repeated requests for the same
// configuration to return the same report instance, including across
// Eval and Run entry points.
func TestCacheMemoizes(t *testing.T) {
	p := New(4)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}

	first, err := p.Eval(core.DefaultSystem(1), wl, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Eval(core.DefaultSystem(1), wl, []int{8, 1})
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != second[1] || first[1] != second[0] {
		t.Fatal("repeated Eval did not reuse cached reports")
	}
	rep, err := p.Run(core.DefaultSystem(8), wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep != first[1] {
		t.Fatal("Run did not hit the Eval-populated cache")
	}
}

// TestReset requires Reset to drop memoized entries so the next
// request recomputes.
func TestReset(t *testing.T) {
	p := New(2)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	before, err := p.Run(core.DefaultSystem(8), wl)
	if err != nil {
		t.Fatal(err)
	}
	p.Reset()
	after, err := p.Run(core.DefaultSystem(8), wl)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("Reset did not drop the cached report")
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("recomputed report differs from the original")
	}
}

// TestErrorIsLowestIndex requires the pooled error to be the one the
// serial loop would hit first, regardless of scheduling.
func TestErrorIsLowestIndex(t *testing.T) {
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	// Index 1 (0 chips) and index 3 (-1 chips) both fail; index 1 must
	// win.
	_, err := New(8).Eval(core.DefaultSystem(1), wl, []int{8, 0, 4, -1})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "point 1 (0 chips)") {
		t.Fatalf("error %q does not name the lowest failing index", err)
	}
}

// TestConcurrentSharedPool hammers one pool from many goroutines over
// overlapping point sets — the race-detector workout for the cache's
// lock and once-per-entry discipline.
func TestConcurrentSharedPool(t *testing.T) {
	p := New(8)
	sets := figurePointSets()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		for name := range sets {
			wg.Add(1)
			go func(points []Point) {
				defer wg.Done()
				if _, err := p.Map(points); err != nil {
					t.Error(err)
				}
			}(sets[name])
		}
	}
	wg.Wait()
}

// TestDefaultPoolAndSetWorkers covers the package-level facade.
func TestDefaultPoolAndSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	if got := Default().Workers(); got != 2 {
		t.Fatalf("workers = %d, want 2", got)
	}
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	reports, err := Eval(core.DefaultSystem(1), wl, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(core.DefaultSystem(2), wl)
	if err != nil {
		t.Fatal(err)
	}
	if rep != reports[1] {
		t.Fatal("package-level Run and Eval do not share the default cache")
	}
	pts := []Point{{System: core.DefaultSystem(1), Workload: wl}}
	if _, err := Map(pts); err != nil {
		t.Fatal(err)
	}
}

// TestSimulationsCounter pins that the counter meters cache misses
// only: hits and Reset leave past counts in place, so search code can
// measure its exact-simulation cost by delta.
func TestSimulationsCounter(t *testing.T) {
	p := New(2)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	if got := p.Simulations(); got != 0 {
		t.Fatalf("fresh pool reports %d simulations", got)
	}
	if _, err := p.Eval(core.DefaultSystem(1), wl, []int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if got := p.Simulations(); got != 3 {
		t.Errorf("three distinct points simulated %d times", got)
	}
	// Repeats are hits.
	if _, err := p.Eval(core.DefaultSystem(1), wl, []int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	if got := p.Simulations(); got != 3 {
		t.Errorf("cache hits moved the counter to %d", got)
	}
	// Reset drops the cache but not the history: the same points
	// simulate again and the counter keeps accumulating.
	p.Reset()
	if _, err := p.Eval(core.DefaultSystem(1), wl, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := p.Simulations(); got != 5 {
		t.Errorf("post-Reset re-evaluation left the counter at %d, want 5", got)
	}
}
