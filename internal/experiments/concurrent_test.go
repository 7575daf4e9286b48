package experiments

import (
	"reflect"
	"testing"

	"mcudist/internal/evalpool"
)

// TestConcurrentStudiesMatchSerial runs five studies on one worker,
// where everything runs in turn on the caller, and on four, where the
// parts of three (the resilience boards and the two fleet sweeps'
// replays) run side by side and the searches of all five fill their
// points on several workers. Each study starts from an emptied memo,
// so its exact-evaluation bills are its own, and every value,
// ExactSims included, must be equal.
func TestConcurrentStudiesMatchSerial(t *testing.T) {
	studies := []struct {
		name string
		run  func() (any, error)
	}{
		{"resilience-margin", func() (any, error) { return ResilienceMargin() }},
		{"session-autotune", func() (any, error) { return SessionAutotune() }},
		{"mem-tiling-autotune", func() (any, error) { return MemTilingAutotune() }},
		{"fleet-saturation", func() (any, error) { return FleetSaturation() }},
		{"fleet-batching", func() (any, error) { return FleetBatchingAblation() }},
	}
	t.Cleanup(func() { evalpool.SetWorkers(0) })
	results := map[int][]any{}
	for _, workers := range []int{1, 4} {
		evalpool.SetWorkers(workers)
		for _, s := range studies {
			evalpool.ResetCache()
			v, err := s.run()
			if err != nil {
				t.Fatalf("%s at %d workers: %v", s.name, workers, err)
			}
			results[workers] = append(results[workers], v)
		}
	}
	for i, s := range studies {
		if serial, pooled := results[1][i], results[4][i]; !reflect.DeepEqual(serial, pooled) {
			t.Errorf("%s: 4 workers\n%+v\nwant the 1-worker value\n%+v", s.name, pooled, serial)
		}
	}
	if rows := results[1][0].([]ResilienceRow); rows[0].ExactSims == 0 {
		t.Error("the resilience study billed no exact evaluation on an emptied memo")
	}
}
