package eventsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	eng := NewEngine()
	var order []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		eng.At(at, func() { order = append(order, at) })
	}
	end := eng.Run()
	if end != 5 {
		t.Fatalf("end time = %v, want 5", end)
	}
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Fatalf("ran %d events, want 5", len(order))
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.At(7, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	eng := NewEngine()
	eng.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		eng.At(5, func() {})
	})
	eng.Run()
}

// Property: for any random set of event times, execution order is the
// sorted order of those times.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		eng := NewEngine()
		var got []Time
		times := make([]Time, len(raw))
		for i, v := range raw {
			at := Time(v)
			times[i] = at
			eng.At(at, func() { got = append(got, at) })
		}
		eng.Run()
		sort.Float64s(times)
		if len(got) != len(times) {
			return false
		}
		for i := range got {
			if got[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineThroughput schedules events in bursts of 1024, each
// at a random offset from now, and drains each burst with Run.
func BenchmarkEngineThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	eng := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng.At(eng.Now()+Time(rng.Intn(64)), func() {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}
