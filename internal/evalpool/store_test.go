package evalpool

import (
	"reflect"
	"sync"
	"testing"

	"mcudist/internal/core"
	"mcudist/internal/model"
	"mcudist/internal/resultstore"
)

func openStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStoreTiers walks one configuration through all three tiers: an
// exact simulation in the first process, a disk hit in the second, a
// memory hit on every repeat — with Stats attributing each request to
// the tier that answered it and the served reports identical.
func TestStoreTiers(t *testing.T) {
	dir := t.TempDir()
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}

	cold := New(2)
	cold.SetStore(openStore(t, dir))
	first, err := cold.Eval(core.DefaultSystem(1), wl, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Stats(); got != (Stats{Simulations: 3}) {
		t.Errorf("cold stats = %+v, want 3 simulations only", got)
	}
	if cold.Store().Len() != 3 {
		t.Errorf("store holds %d entries after cold fill, want 3", cold.Store().Len())
	}

	// A second process: fresh pool, fresh store handle, warm disk.
	warm := New(2)
	warm.SetStore(openStore(t, dir))
	second, err := warm.Eval(core.DefaultSystem(1), wl, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Stats(); got != (Stats{DiskHits: 3}) {
		t.Errorf("warm stats = %+v, want 3 disk hits and zero simulations", got)
	}
	for i := range first {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Fatalf("point %d: disk-served report differs from the simulated one:\n%+v\nvs\n%+v",
				i, first[i], second[i])
		}
	}

	// Repeats inside the warm process are memory hits.
	if _, err := warm.Run(core.DefaultSystem(2), wl); err != nil {
		t.Fatal(err)
	}
	if got := warm.Stats(); got != (Stats{MemoryHits: 1, DiskHits: 3}) {
		t.Errorf("stats after repeat = %+v, want a memory hit on top", got)
	}
}

// TestErrorsNotPersisted pins satellite semantics: a failed evaluation
// is memoized only in-process — it never reaches the store, and after
// Reset the configuration is genuinely re-evaluated, so a transient
// failure does not poison any later run.
func TestErrorsNotPersisted(t *testing.T) {
	p := New(2)
	p.SetStore(openStore(t, t.TempDir()))
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	bad := core.DefaultSystem(0) // 0 chips: core.Run rejects it

	if _, err := p.Run(bad, wl); err == nil {
		t.Fatal("expected the 0-chip configuration to fail")
	}
	if got := p.Simulations(); got != 1 {
		t.Fatalf("failed evaluation counted %d simulations, want 1", got)
	}
	if p.Store().Len() != 0 {
		t.Fatal("error entry was persisted to the result store")
	}
	// Within the process the failure is memoized...
	if _, err := p.Run(bad, wl); err == nil {
		t.Fatal("memoized failure did not fail")
	}
	if got := p.Simulations(); got != 1 {
		t.Fatalf("memoized failure re-simulated (count %d)", got)
	}
	// ...but Reset clears it: the point is re-evaluated, not served
	// from any tier.
	p.Reset()
	if _, err := p.Run(bad, wl); err == nil {
		t.Fatal("expected the re-evaluated configuration to fail again")
	}
	if got := p.Simulations(); got != 2 {
		t.Fatalf("post-Reset evaluation count = %d, want 2 (transient failure must be retried)", got)
	}
	if p.Store().Len() != 0 {
		t.Fatal("retried error entry was persisted")
	}
}

// TestConcurrentPoolsSharedDir runs two pools, each with its own store
// handle on one directory, over overlapping point sets concurrently —
// the cross-process writer race in miniature, under the race detector.
// The log must come out clean: a fresh open indexes every entry and
// skips nothing.
func TestConcurrentPoolsSharedDir(t *testing.T) {
	dir := t.TempDir()
	wl := core.Workload{Model: model.TinyLlama42M(), Mode: model.Autoregressive}
	chips := []int{1, 2, 4, 8}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		p := New(4)
		p.SetStore(openStore(t, dir))
		wg.Add(1)
		go func(p *Pool) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				if _, err := p.Eval(core.DefaultSystem(1), wl, chips); err != nil {
					t.Error(err)
				}
			}
		}(p)
	}
	wg.Wait()

	s := openStore(t, dir)
	if s.Skipped() != 0 {
		t.Errorf("concurrent pools corrupted %d records", s.Skipped())
	}
	if s.Len() != len(chips) {
		t.Errorf("store holds %d entries, want %d", s.Len(), len(chips))
	}
	serial := serialSweep(t, core.DefaultSystem(1), wl, chips)
	for i, n := range chips {
		got, ok := s.Load(core.DefaultSystem(n), wl)
		if !ok {
			t.Fatalf("chips=%d missing from the shared store", n)
		}
		if !reflect.DeepEqual(got, serial[i]) {
			t.Errorf("chips=%d: stored report differs from serial reference", n)
		}
	}
}

// TestSetWorkersKeepsStore pins that replacing the default pool via
// SetWorkers carries the attached store over — commands parse -workers
// and -cache-dir independently, in either order.
func TestSetWorkersKeepsStore(t *testing.T) {
	defer func() {
		SetStore(nil)
		SetWorkers(0)
	}()
	s := openStore(t, t.TempDir())
	SetStore(s)
	SetWorkers(2)
	if Default().Store() != s {
		t.Fatal("SetWorkers dropped the attached result store")
	}
}
