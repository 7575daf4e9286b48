package mem

import (
	"math"
	"testing"
)

func TestFootprint(t *testing.T) {
	f := Footprint{WeightBytes: 100, KVBytes: 20, ActivationBytes: 30, CommBytes: 5}
	if f.Total() != 155 {
		t.Fatalf("total = %d", f.Total())
	}
	if !f.FitsIn(155) {
		t.Fatal("exact fit rejected")
	}
	if f.FitsIn(154) {
		t.Fatal("overflow accepted")
	}
	huge := Footprint{WeightBytes: math.MaxInt, KVBytes: 20, ActivationBytes: 30}
	if huge.Total() != math.MaxInt || huge.FitsIn(1<<30) {
		t.Fatalf("total = %d, want it saturated at math.MaxInt", huge.Total())
	}
}
