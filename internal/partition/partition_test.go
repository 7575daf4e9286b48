package partition

import (
	"testing"
	"testing/quick"

	"mcudist/internal/model"
)

func TestTensorParallelNoReplication(t *testing.T) {
	cfg := model.TinyLlama42M()
	for _, n := range []int{1, 2, 4, 8} {
		p, err := NewTensorParallel(cfg, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// The paper's core claim: weights are scattered, never
		// duplicated.
		if got := p.TotalWeightBytes(); got != cfg.TotalWeightBytes() {
			t.Fatalf("n=%d: stored %d bytes, model has %d", n, got, cfg.TotalWeightBytes())
		}
		if rf := p.ReplicationFactor(); rf != 1.0 {
			t.Fatalf("n=%d: replication factor %g, want exactly 1", n, rf)
		}
	}
}

func TestTensorParallelEvenHeadSplit(t *testing.T) {
	cfg := model.TinyLlama42M() // H=8, F=2048
	p, _ := NewTensorParallel(cfg, 8)
	for c := 0; c < 8; c++ {
		if p.Heads[c].Len() != 1 {
			t.Fatalf("chip %d owns %d heads, want 1", c, p.Heads[c].Len())
		}
		if p.PSlice(c) != 64 {
			t.Fatalf("chip %d P slice = %d, want 64", c, p.PSlice(c))
		}
		if p.FWidth(c) != 256 {
			t.Fatalf("chip %d F width = %d, want 256", c, p.FWidth(c))
		}
	}
}

func TestTensorParallelUnevenSplit(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, err := NewTensorParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for c := 0; c < 3; c++ {
		total += p.Heads[c].Len()
	}
	if total != cfg.H {
		t.Fatalf("heads covered %d of %d", total, cfg.H)
	}
	// Uneven is allowed; difference at most one head.
	if p.Heads[0].Len()-p.Heads[2].Len() > 1 {
		t.Fatalf("head imbalance too large: %v", p.Heads)
	}
}

func TestTensorParallelRejectsTooManyChips(t *testing.T) {
	cfg := model.TinyLlama42M() // 8 heads
	if _, err := NewTensorParallel(cfg, 9); err == nil {
		t.Fatal("9 chips on 8 heads accepted")
	}
	if _, err := NewTensorParallel(cfg, 0); err == nil {
		t.Fatal("0 chips accepted")
	}
}

func TestScaled64Heads(t *testing.T) {
	cfg := model.TinyLlamaScaled64()
	p, err := NewTensorParallel(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.PSlice(0) != 8 {
		t.Fatalf("64-chip P slice = %d, want 8", p.PSlice(0))
	}
	if p.TotalWeightBytes() != cfg.TotalWeightBytes() {
		t.Fatal("scaled model replicated weights")
	}
}

func TestPRangeContiguous(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := NewTensorParallel(cfg, 4)
	lo := 0
	for c := 0; c < 4; c++ {
		r := p.PRange(c)
		if r.Lo != lo {
			t.Fatalf("chip %d P range starts at %d, want %d", c, r.Lo, lo)
		}
		lo = r.Hi
	}
	if lo != cfg.P {
		t.Fatalf("P ranges cover %d of %d", lo, cfg.P)
	}
}

func TestKVCacheSplitAcrossChips(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := NewTensorParallel(cfg, 8)
	s := 128
	total := 0
	for c := 0; c < 8; c++ {
		total += p.KVBytesPerBlockOnChip(c, s)
	}
	if total != cfg.KVBytesPerBlock(s) {
		t.Fatalf("distributed KV %d != full KV %d", total, cfg.KVBytesPerBlock(s))
	}
}

func TestReplicatedDuplicatesWeights(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, err := NewReplicated(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if rf := p.ReplicationFactor(); rf != 4.0 {
		t.Fatalf("replication factor %g, want 4", rf)
	}
	// Full KV everywhere.
	if p.KVBytesPerBlockOnChip(0, 64) != cfg.KVBytesPerBlock(64) {
		t.Fatal("replicated chip should cache full KV")
	}
}

func TestReplicatedSeqSplit(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := NewReplicated(cfg, 4)
	rs := p.SeqSplit(10)
	if len(rs) != 4 {
		t.Fatalf("got %d ranges", len(rs))
	}
	total := 0
	for _, r := range rs {
		total += r.Len()
	}
	if total != 10 {
		t.Fatalf("seq split covers %d of 10", total)
	}
	// Single token: only one chip gets work.
	one := p.SeqSplit(1)
	active := 0
	for _, r := range one {
		if r.Len() > 0 {
			active++
		}
	}
	if active != 1 {
		t.Fatalf("single-token replicated split activates %d chips, want 1", active)
	}
}

func TestPipelineSplitsBlocks(t *testing.T) {
	cfg := model.TinyLlama42M() // L=8
	p, err := NewPipeline(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if p.BlocksOnChip(c) != 2 {
			t.Fatalf("stage %d holds %d blocks, want 2", c, p.BlocksOnChip(c))
		}
	}
	// Pipeline stores each weight exactly once.
	if rf := p.ReplicationFactor(); rf != 1.0 {
		t.Fatalf("pipeline replication factor %g, want 1", rf)
	}
}

func TestPipelineRejectsMoreChipsThanBlocks(t *testing.T) {
	cfg := model.TinyLlama42M()
	if _, err := NewPipeline(cfg, 9); err == nil {
		t.Fatal("9 stages on 8 blocks accepted")
	}
}

func TestPayloadBytes(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := NewTensorParallel(cfg, 8)
	// AR mode: S=1 → reduce 1×512 int8 partials = 512 B, bcast 512 B.
	if got := p.ReducePayloadBytes(1); got != 512 {
		t.Fatalf("reduce payload = %d, want 512", got)
	}
	if got := p.BcastPayloadBytes(1); got != 512 {
		t.Fatalf("bcast payload = %d, want 512", got)
	}
	// Prompt S=16, int8 exchange.
	if got := p.ReducePayloadBytes(16); got != 16*512 {
		t.Fatalf("prompt reduce payload = %d", got)
	}
	// The exact-reduction ablation exchanges int32 accumulators.
	exact := cfg
	exact.ReduceBytes = 4
	pe, _ := NewTensorParallel(exact, 8)
	if got := pe.ReducePayloadBytes(16); got != 16*512*4 {
		t.Fatalf("int32 reduce payload = %d", got)
	}
}

func TestValidateCatchesCorruptedPlan(t *testing.T) {
	cfg := model.TinyLlama42M()
	p, _ := NewTensorParallel(cfg, 4)
	p.Heads[1].Lo++ // introduce a gap
	if err := p.Validate(); err == nil {
		t.Fatal("gap in head coverage accepted")
	}
	p, _ = NewTensorParallel(cfg, 4)
	p.FSlice[3].Hi-- // shrink coverage
	if err := p.Validate(); err == nil {
		t.Fatal("short intermediate coverage accepted")
	}
}

// Property: for any chip count and head count, the tensor-parallel
// plan never replicates and never drops weights.
func TestPropertyNoReplicationAnyChipCount(t *testing.T) {
	f := func(nRaw, hRaw uint8) bool {
		h := 1 + int(hRaw)%64
		cfg := model.TinyLlama42M()
		cfg.H = h
		cfg.P = h * 8 // keep head dim even for RoPE
		n := 1 + int(nRaw)%h
		p, err := NewTensorParallel(cfg, n)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		return p.TotalWeightBytes() == cfg.TotalWeightBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-chip weight imbalance is bounded by one head + one F
// column worth of weights.
func TestPropertyBalancedSplit(t *testing.T) {
	f := func(nRaw uint8) bool {
		cfg := model.TinyLlama42M()
		n := 1 + int(nRaw)%8
		p, err := NewTensorParallel(cfg, n)
		if err != nil {
			return false
		}
		minB, maxB := -1, 0
		for c := 0; c < n; c++ {
			b := p.BlockWeightBytesOnChip(c)
			if minB == -1 || b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
		}
		slack := (4*cfg.E*cfg.HeadDim() + cfg.FFNMatrices()*cfg.E) * cfg.WeightBytes
		return maxB-minB <= slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: KV cache shards always sum to the full cache.
func TestPropertyKVConservation(t *testing.T) {
	f := func(nRaw, sRaw uint8) bool {
		cfg := model.TinyLlama42M()
		n := 1 + int(nRaw)%8
		s := 1 + int(sRaw)%256
		p, err := NewTensorParallel(cfg, n)
		if err != nil {
			return false
		}
		total := 0
		for c := 0; c < n; c++ {
			total += p.KVBytesPerBlockOnChip(c, s)
		}
		return total == cfg.KVBytesPerBlock(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyStrings(t *testing.T) {
	if TensorParallel.String() != "tensor-parallel" ||
		Replicated.String() != "replicated" ||
		Pipeline.String() != "pipeline" {
		t.Fatal("strategy names wrong")
	}
}
