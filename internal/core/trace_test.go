package core

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mcudist/internal/model"
	"mcudist/internal/partition"
	"mcudist/internal/perfsim"
	"mcudist/internal/trace"
)

// traceDigests pins the sha256 of the Chrome trace-event JSON a traced
// run writes, the file `mcudist -trace` prints for the same flags:
// every span's chip, category, label, start and end. It covers the
// tree in decode and prefill, the pipeline's handoff chain, the
// double-buffered EdgeLlama prefetch and the replicated exchanges.
var traceDigests = []struct {
	flags    string
	model    string
	mode     model.Mode
	chips    int
	strategy partition.Strategy
	digest   string
}{
	{"-model tinyllama -chips 8", "tinyllama", model.Autoregressive, 8, partition.TensorParallel,
		"b82602c7e2c8e1fb332559f4b5fbcb4c88c4830839ab0a9c0060bd8fab882d3c"},
	{"-model scaled -mode prompt -chips 64", "scaled", model.Prompt, 64, partition.TensorParallel,
		"d4675d603726095609e28d190746425a2305853b2d98c18d844856b1449e37c8"},
	{"-model tinyllama -chips 8 -strategy pipeline", "tinyllama", model.Autoregressive, 8, partition.Pipeline,
		"ec345894d7de39c0bf72e86b73df811c25b24b069b25e670a6e6d8ed6df4e169"},
	{"-model edgellama -chips 8", "edgellama", model.Autoregressive, 8, partition.TensorParallel,
		"1d5e32d06094c2b3ca86cc0715558151f7bb3c027c08fb6f7f427927a3537a6e"},
	{"-model mobilebert -mode prompt -chips 4 -strategy replicated", "mobilebert", model.Prompt, 4, partition.Replicated,
		"3d280b9de0b05f68609bcb9cfb9f14e160ef9d448c2fded8b4503d7babfc0521"},
}

func TestTraceDigests(t *testing.T) {
	for _, c := range traceDigests {
		t.Run(c.flags, func(t *testing.T) {
			cfg, err := model.ByName(c.model)
			if err != nil {
				t.Fatal(err)
			}
			sys := DefaultSystem(c.chips)
			sys.Strategy = c.strategy
			d, err := Lower(sys, Workload{Model: cfg, Mode: c.mode})
			if err != nil {
				t.Fatal(err)
			}
			tl := &trace.Timeline{}
			if _, err := perfsim.RunTraced(d, tl); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := tl.ChromeJSON(h, sys.HW.Chip.FreqHz); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.digest {
				t.Errorf("trace digest = %s, want %s", got, c.digest)
			}
		})
	}
}
