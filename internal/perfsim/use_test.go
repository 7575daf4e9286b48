package perfsim

import (
	"testing"
	"testing/quick"
)

// A device serves its users in the order they call: three users ready
// at zero run back to back, and a user ready early still queues behind
// an earlier one that waited for its input.
func TestUseServesInCallOrder(t *testing.T) {
	var free float64
	for i, want := range []float64{10, 20, 30} {
		if end := use(&free, 0, 10); end != want {
			t.Fatalf("use %d ends at %g, want %g", i, end, want)
		}
	}
	free = 0
	if end := use(&free, 100, 10); end != 110 {
		t.Fatalf("first use ends at %g, want 110 (it waits for its input)", end)
	}
	if end := use(&free, 0, 10); end != 120 {
		t.Fatalf("second use ends at %g, want 120 (it queues behind the first)", end)
	}
	if free != 120 {
		t.Fatalf("device free at %g, want 120", free)
	}
}

func TestUseZeroDuration(t *testing.T) {
	var free float64
	if end := use(&free, 0, 0); end != 0 {
		t.Fatalf("zero use ended at %g", end)
	}
	if end := use(&free, 7, 0); end != 7 || free != 7 {
		t.Fatalf("zero use ready at 7 ended at %g, device free at %g", end, free)
	}
}

func TestUseNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duration accepted")
		}
	}()
	var free float64
	use(&free, 0, -1)
}

// Property: uses never overlap, and back-to-back users ready at zero
// finish at the sum of their durations.
func TestUsePropertyNoOverlap(t *testing.T) {
	f := func(raw []uint8) bool {
		var free, total, prevEnd float64
		for _, v := range raw {
			d := float64(v)
			total += d
			end := use(&free, 0, d)
			if end-d < prevEnd {
				return false
			}
			prevEnd = end
		}
		return free == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
