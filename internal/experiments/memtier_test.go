package experiments

import (
	"testing"

	"mcudist/internal/deploy"
)

// TestMemTierStudy pins the memory-hierarchy cost-tier study's
// findings at the streamed 2-chip TinyLlama point, per mode: every
// row runs in the streamed tier; the DRAM hierarchy's double-buffered
// tile prefetch beats the flat model's synchronous-bytes pricing;
// prefetch depth beyond 1 changes nothing (uniform tile streams
// saturate at double buffering in either regime — a closed-form
// property of the makespan recurrence, not a tolerance); bank
// contention strictly bites in prompt mode where tiles carry real
// compute and stays within the fetch-bound shadow in decode; and
// halving DRAM bandwidth always costs runtime.
func TestMemTierStudy(t *testing.T) {
	rows, err := MemTierStudy()
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]map[string]MemTierRow{"autoregressive": {}, "prompt": {}}
	for _, r := range rows {
		if r.Tier != deploy.TierStreamed {
			t.Errorf("%s/%s: tier %v, want streamed", r.Mode, r.Label, r.Tier)
		}
		if r.L3Bytes <= 0 || r.L3Cycles <= 0 {
			t.Errorf("%s/%s: no off-chip traffic (%d bytes, %.0f cycles)", r.Mode, r.Label, r.L3Bytes, r.L3Cycles)
		}
		byLabel[r.Mode][r.Label] = r
	}
	for mode, rowsOf := range byLabel {
		flat, dram := rowsOf["flat"], rowsOf["dram-lpddr5"]
		if dram.Cycles >= flat.Cycles {
			t.Errorf("%s: hierarchy overlap should beat flat synchronous pricing: dram %.0f vs flat %.0f",
				mode, dram.Cycles, flat.Cycles)
		}
		if d1, d4 := rowsOf["dram-depth1"], rowsOf["dram-depth4"]; d1.Cycles != dram.Cycles || d4.Cycles != dram.Cycles {
			t.Errorf("%s: uniform tile streams must saturate at double buffering: depth1 %.0f, depth2 %.0f, depth4 %.0f",
				mode, d1.Cycles, dram.Cycles, d4.Cycles)
		}
		if b2, b16 := rowsOf["dram-banks2"], rowsOf["dram-banks16"]; !(b16.Cycles <= dram.Cycles && dram.Cycles <= b2.Cycles) {
			t.Errorf("%s: bank contention must monotonically hurt: banks2 %.0f, banks8 %.0f, banks16 %.0f",
				mode, b2.Cycles, dram.Cycles, b16.Cycles)
		}
		if half := rowsOf["dram-halfbw"]; half.Cycles <= dram.Cycles {
			t.Errorf("%s: half DRAM bandwidth cannot be free: %.0f vs %.0f", mode, half.Cycles, dram.Cycles)
		}
	}
	// The contention knob's bite is regime-dependent: strict in prompt
	// mode (compute-heavy tiles contend for banks), shadowed by the
	// DRAM fetch chain in decode.
	pr := byLabel["prompt"]
	if !(pr["dram-banks2"].Cycles > pr["dram-lpddr5"].Cycles && pr["dram-lpddr5"].Cycles > pr["dram-banks16"].Cycles) {
		t.Errorf("prompt-mode bank contention must bite strictly: banks2 %.0f, banks8 %.0f, banks16 %.0f",
			pr["dram-banks2"].Cycles, pr["dram-lpddr5"].Cycles, pr["dram-banks16"].Cycles)
	}
	ar := byLabel["autoregressive"]
	t.Logf("decode flat %.0f vs dram %.0f; prompt flat %.0f vs dram %.0f (banks2 %.0f, banks16 %.0f)",
		ar["flat"].Cycles, ar["dram-lpddr5"].Cycles, pr["flat"].Cycles, pr["dram-lpddr5"].Cycles,
		pr["dram-banks2"].Cycles, pr["dram-banks16"].Cycles)
}

// TestMemTilingAutotune pins the tiling study: on the
// bigger-than-SRAM EdgeLlama point the layer families split (the
// ISSUE's ablation), the split never loses to the best uniform
// tiling, and the search's exact-simulation bill stays at least 5x
// under the grid on every row.
func TestMemTilingAutotune(t *testing.T) {
	rows, err := MemTilingAutotune()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Margin < 1 {
			t.Errorf("%s: winner lost to uniform (margin %.4f)", r.Model, r.Margin)
		}
		if r.GridSims < 5*r.ExactSims {
			t.Errorf("%s: %d exact sims for a %d-sim grid, want >= 5x fewer", r.Model, r.ExactSims, r.GridSims)
		}
	}
	edge := rows[1]
	if edge.Model != "edgellama-1b" {
		t.Fatalf("second row is %s, want edgellama-1b", edge.Model)
	}
	if edge.Attn == edge.FFN {
		t.Errorf("EdgeLlama families picked the same tiling %s", edge.Attn)
	}
	if edge.Attn != "32x352" || edge.FFN != "32x512" {
		t.Errorf("EdgeLlama winner (%s, %s), want pinned (32x352, 32x512)", edge.Attn, edge.FFN)
	}
	if edge.Margin <= 1 {
		t.Errorf("EdgeLlama per-family margin %.4f, want strictly > 1", edge.Margin)
	}
	for _, r := range rows {
		t.Logf("%s@%d: attn %s ffn %s (uniform %s) margin %.4f energy %.4f rank %.2f sims %d/%d",
			r.Model, r.Chips, r.Attn, r.FFN, r.BestUniform, r.Margin, r.EnergyMargin,
			r.RankAccuracy, r.ExactSims, r.GridSims)
	}
}

// TestMemTilingAutotuneWarmAllocs bounds what a warm paper pass pays
// for the tiling study: with every verification a report-cache hit,
// what is left is the lowering and the closed-form predictor, which
// plans each distinct GEMM once per candidate tiling and keeps no
// per-tile state.
func TestMemTilingAutotuneWarmAllocs(t *testing.T) {
	if _, err := MemTilingAutotune(); err != nil {
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(3, func() {
		if _, err := MemTilingAutotune(); err != nil {
			t.Fatal(err)
		}
	})
	if a > 5000 {
		t.Fatalf("warm MemTilingAutotune allocates %.0f times, want at most 5000", a)
	}
	t.Logf("warm MemTilingAutotune: %.0f allocations", a)
}
