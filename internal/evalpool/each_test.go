package evalpool

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcudist/internal/core"
	"mcudist/internal/model"
)

// goroutineID names the calling goroutine, read from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// Each runs every index exactly once at any worker count; at one
// worker it runs them in index order on the calling goroutine.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 100} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				calls := make([]atomic.Int32, n)
				var mu sync.Mutex
				var order []int
				var goroutines []string
				err := New(workers).Each(n, func(i int) error {
					calls[i].Add(1)
					mu.Lock()
					order = append(order, i)
					goroutines = append(goroutines, goroutineID())
					mu.Unlock()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times", i, c)
					}
				}
				if workers > 1 {
					return
				}
				caller := goroutineID()
				for k, i := range order {
					if i != k {
						t.Fatalf("call %d ran index %d: one worker runs in index order", k, i)
					}
					if goroutines[k] != caller {
						t.Fatalf("index %d ran on goroutine %s, not the caller's %s", i, goroutines[k], caller)
					}
				}
			})
		}
	}
}

// Each returns the lowest failing index's error after every index ran,
// whatever the schedule.
func TestEachReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var ran atomic.Int32
		err := New(workers).Each(50, func(i int) error {
			ran.Add(1)
			if i == 31 || i == 7 || i == 40 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 7" {
			t.Errorf("workers=%d: error %v, want index 7's", workers, err)
		}
		if ran.Load() != 50 {
			t.Errorf("workers=%d: %d of 50 indices ran", workers, ran.Load())
		}
	}
}

// An Each inside an Each completes, its fills sharing the one bound.
func TestNestedEachCompletes(t *testing.T) {
	p := New(2)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	done := make(chan error, 1)
	go func() {
		done <- p.Each(4, func(i int) error {
			return p.Each(4, func(j int) error {
				_, err := p.Run(core.DefaultSystem(1+(4*i+j)%8), core.Workload{Model: wl.Model, Mode: wl.Mode, SeqLen: 16 + 4*i + j})
				return err
			})
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("nested Each did not complete")
	}
	if got := p.Evaluations(); got != 16 {
		t.Errorf("%d evaluations, want the 16 distinct points", got)
	}
}

// holdFills replaces the simulate seam with one that keeps every fill
// open for hold, long enough for every goroutine that could start a
// fill to start one, and returns the most fills it saw in flight at
// once.
func holdFills(t *testing.T, hold time.Duration) *atomic.Int32 {
	var inFlight, peak atomic.Int32
	simulate = func(sys core.System, wl core.Workload) (*core.Report, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(hold)
		inFlight.Add(-1)
		return core.Run(sys, wl)
	}
	t.Cleanup(func() { simulate = core.Run })
	return &peak
}

// Two Map calls on a 2-worker pool each run two goroutines, yet no
// more than two fills are ever in flight: the worker count bounds
// every fill across callers, not each caller's loop.
func TestFillsBoundedAcrossCallers(t *testing.T) {
	const workers = 2
	peak := holdFills(t, 20*time.Millisecond)
	p := New(workers)
	var wg sync.WaitGroup
	for call := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			points := make([]Point, 4)
			for i := range points {
				points[i] = Point{System: core.DefaultSystem(1 + i), Workload: core.Workload{
					Model: model.TinyLlama42M(), Mode: model.Autoregressive, SeqLen: 32 + call}}
			}
			if _, err := p.Map(points); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Errorf("%d fills in flight at once on a %d-worker pool", got, workers)
	} else if got < workers {
		t.Errorf("at most %d fills in flight: the two calls never overlapped", got)
	}
}

// A Map's fill count is its own memory misses: run alone it equals the
// Evaluations delta, a failing point counts, a point repeated within
// the call counts once, and a second call over the same points fills
// nothing (the failure is memoized too).
func TestMapFillsCountsOwnFills(t *testing.T) {
	p := New(4)
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	var points []Point
	for _, n := range []int{1, 2, 0, 4, 2, 8, 0} {
		points = append(points, Point{System: core.DefaultSystem(n), Workload: wl})
	}
	before := p.Evaluations()
	_, fills, err := p.MapFills(points)
	if err == nil || !strings.Contains(err.Error(), "point 2 (0 chips)") {
		t.Fatalf("error %v, want point 2's", err)
	}
	if delta := p.Evaluations() - before; fills != 5 || uint64(fills) != delta {
		t.Errorf("filled %d, Evaluations delta %d, want both 5 (four chip counts and the failing point)", fills, delta)
	}
	_, fills, err = p.MapFills(points)
	if err == nil {
		t.Fatal("memoized failure lost")
	}
	if fills != 0 {
		t.Errorf("second call filled %d memoized points", fills)
	}
	if _, fills, err = p.MapFills(points[:2]); err != nil || fills != 0 {
		t.Errorf("settled points: fills %d, error %v", fills, err)
	}
}
