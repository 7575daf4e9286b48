package deploy

import (
	"math"
	"testing"

	"mcudist/internal/hw"
	"mcudist/internal/model"
)

// TestStreamBufferBytes pins the streamed-tier weight-staging
// arithmetic: the flat model double-buffers one L1-half tile, while
// the hierarchical model holds PrefetchDepth+1 slots of the largest
// tile either layer family pins — the full slot when a family
// auto-sizes, and capped at the slot when a pinned tile would not fit
// one (the planner later rejects such tilings with a real error; the
// footprint just must not overflow the budget first).
func TestStreamBufferBytes(t *testing.T) {
	cfg := model.TinyLlama42M() // int8: WeightBytes = 1
	p := mustTP(t, cfg, 2)
	slot := streamTileBytes(hw.Siracusa())
	if slot != 128*1024 {
		t.Fatalf("fixture drift: slot = %d, want half of Siracusa L1", slot)
	}
	dram := func(mutate func(*hw.MemHierarchy)) hw.Params {
		hwp := hw.Siracusa()
		hwp.Mem = hw.LPDDR5()
		if mutate != nil {
			mutate(&hwp.Mem)
		}
		return hwp
	}
	cases := []struct {
		name string
		hwp  hw.Params
		want int
	}{
		{"auto tiles fill whole slots", dram(nil), 3 * slot},
		{"depth widens the buffer", dram(func(m *hw.MemHierarchy) { m.PrefetchDepth = 4 }), 5 * slot},
		{"pinned tile shrinks the buffer", dram(func(m *hw.MemHierarchy) {
			m.TileK, m.TileN = 32, 256
		}), 3 * 32 * 256 * cfg.WeightBytes},
		{"largest family tile governs", dram(func(m *hw.MemHierarchy) {
			m.TileK, m.TileN = 32, 256
			m.FFNTileK, m.FFNTileN = 64, 512
		}), 3 * 64 * 512 * cfg.WeightBytes},
		{"auto family keeps the full slot", dram(func(m *hw.MemHierarchy) {
			// Only the FFN family is pinned; attention auto-sizes, so its
			// full slot governs the shared buffer.
			m.FFNTileK, m.FFNTileN = 32, 256
		}), 3 * slot},
		{"oversized tile capped at the slot", dram(func(m *hw.MemHierarchy) {
			m.TileK, m.TileN = 512, 512 // 256 KiB > one 128 KiB slot
		}), 3 * slot},
		{"largest depth saturates", dram(func(m *hw.MemHierarchy) {
			m.PrefetchDepth = math.MaxInt // (depth+1) * slot wraps to 0
		}), math.MaxInt},
	}
	for _, tc := range cases {
		if got := streamBufferBytes(p, tc.hwp); got != tc.want {
			t.Errorf("%s: streamBufferBytes = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestStreamedFootprintUsesStreamBuffer pins that the tier chooser's
// streamed fallback actually charges the stream buffer: the flat model
// stages 2 tile slots, the hierarchy PrefetchDepth+1, and the rest of
// the footprint (KV, activations, comm staging) is identical — the
// memory model re-prices weight staging only.
func TestStreamedFootprintUsesStreamBuffer(t *testing.T) {
	cfg := model.TinyLlama42M()
	p := mustTP(t, cfg, 2)
	s := model.PaperSeqLen(cfg, model.Autoregressive)

	flat := hw.Siracusa()
	if tier := mustDeploy(t, p, model.Autoregressive, s).WorstTier(); tier != TierStreamed {
		t.Fatalf("fixture must be streamed, got %v", tier)
	}
	hwp := hw.Siracusa()
	hwp.Mem = hw.LPDDR5()
	slot := streamTileBytes(hwp)
	for i := 0; i < p.Chips; i++ {
		_, ff := chooseTier(p, i, model.Autoregressive, s, 1, flat)
		dt, df := chooseTier(p, i, model.Autoregressive, s, 1, hwp)
		if dt != TierStreamed {
			t.Fatalf("chip %d: dram fixture must be streamed, got %v", i, dt)
		}
		if ff.weights != 2*slot {
			t.Errorf("chip %d: flat streamed staging %d, want %d", i, ff.weights, 2*slot)
		}
		if want := (hwp.Mem.PrefetchDepth + 1) * slot; df.weights != want {
			t.Errorf("chip %d: dram streamed staging %d, want %d", i, df.weights, want)
		}
		if ff.kv != df.kv || ff.activations != df.activations || ff.comm != df.comm {
			t.Errorf("chip %d: non-weight footprint diverged: flat %+v vs dram %+v", i, ff, df)
		}
	}
}

func TestFootprint(t *testing.T) {
	f := footprint{weights: 100, kv: 20, activations: 30, comm: 5}
	if f.Total() != 155 {
		t.Fatalf("total = %d", f.Total())
	}
	if !f.FitsIn(155) {
		t.Fatal("exact fit rejected")
	}
	if f.FitsIn(154) {
		t.Fatal("overflow accepted")
	}
	huge := footprint{weights: math.MaxInt, kv: 20, activations: 30}
	if huge.Total() != math.MaxInt || huge.FitsIn(1<<30) {
		t.Fatalf("total = %d, want it saturated at math.MaxInt", huge.Total())
	}
}
