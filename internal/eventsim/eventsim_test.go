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

func TestResourceSerializesUsers(t *testing.T) {
	eng := NewEngine()
	var r Resource
	r.Init(eng)
	var spans [][2]Time
	for i := 0; i < 3; i++ {
		r.UseAfter(0, 10, func(s, e Time) { spans = append(spans, [2]Time{s, e}) })
	}
	eng.Run()
	want := [][2]Time{{0, 10}, {10, 20}, {20, 30}}
	if len(spans) != len(want) {
		t.Fatalf("spans = %v, want %v", spans, want)
	}
	for i, sp := range spans {
		if sp != want[i] {
			t.Fatalf("span %d = %v, want %v", i, sp, want[i])
		}
	}
}

func TestResourceUseAfterHonorsReadyTime(t *testing.T) {
	eng := NewEngine()
	var r Resource
	r.Init(eng)
	var first, second [2]Time
	r.UseAfter(100, 10, func(s, e Time) { first = [2]Time{s, e} })
	// Queued behind the first, even though ready earlier.
	r.UseAfter(0, 10, func(s, e Time) { second = [2]Time{s, e} })
	eng.Run()
	if first != [2]Time{100, 110} {
		t.Fatalf("first = %v, want [100 110]", first)
	}
	if second != [2]Time{110, 120} {
		t.Fatalf("second = %v, want [110 120]", second)
	}
}

func TestResourceInterleavedWithEvents(t *testing.T) {
	eng := NewEngine()
	var r Resource
	r.Init(eng)
	var end Time
	eng.At(50, func() {
		r.UseAfter(0, 25, func(_, e Time) { end = e })
	})
	eng.Run()
	if end != 75 {
		t.Fatalf("usage scheduled at t=50 ended at %v, want 75", end)
	}
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

// Property: usage spans never overlap, and back-to-back users ready at
// zero finish at the sum of their durations.
func TestPropertyResourceNoOverlap(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 100 {
			raw = raw[:100]
		}
		eng := NewEngine()
		var r Resource
		r.Init(eng)
		var spans [][2]Time
		var total, end Time
		for _, v := range raw {
			d := Time(v)
			total += d
			end = r.UseAfter(0, d, func(s, e Time) { spans = append(spans, [2]Time{s, e}) })
		}
		eng.Run()
		if end != total {
			return false
		}
		for i := 1; i < len(spans); i++ {
			if spans[i][0] < spans[i-1][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineThroughput schedules events in bursts of 1024 (each
// at a random offset from now, half of them through a resource) and
// drains each burst with Run.
func BenchmarkEngineThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	eng := NewEngine()
	var r Resource
	r.Init(eng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			eng.At(eng.Now()+Time(rng.Intn(64)), func() {})
		} else {
			r.UseAfter(0, Time(rng.Intn(64)), func(_, _ Time) {})
		}
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}
