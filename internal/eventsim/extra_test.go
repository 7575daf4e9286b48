package eventsim

import (
	"math"
	"testing"
)

func TestNonFiniteTimePanics(t *testing.T) {
	eng := NewEngine()
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("time %v accepted", bad)
				}
			}()
			eng.At(bad, func() {})
		}()
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	eng := NewEngine()
	var order []string
	eng.At(1, func() {
		order = append(order, "a")
		eng.At(2, func() { order = append(order, "c") })
		eng.At(eng.Now()+0.5, func() { order = append(order, "b") })
	})
	eng.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v", order)
	}
}

func TestNegativeUsePanics(t *testing.T) {
	var r Resource
	r.Init(NewEngine())
	defer func() {
		if recover() == nil {
			t.Error("negative duration accepted")
		}
	}()
	r.UseAfter(0, -1, nil)
}

func TestZeroDurationUse(t *testing.T) {
	var r Resource
	r.Init(NewEngine())
	if end := r.UseAfter(0, 0, nil); end != 0 {
		t.Fatalf("zero use ended at %g", end)
	}
}

func TestFreeAtTracksQueue(t *testing.T) {
	var r Resource
	r.Init(NewEngine())
	r.UseAfter(0, 10, nil)
	if end := r.UseAfter(0, 5, nil); end != 15 {
		t.Fatalf("second use ends at %g, want 15", end)
	}
}
