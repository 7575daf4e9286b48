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
