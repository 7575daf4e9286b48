package memsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mcudist/internal/hw"
	"mcudist/internal/kernels"
)

func testChannel() Channel {
	p := hw.Siracusa()
	p.Mem = hw.LPDDR5()
	return ChannelOf(p)
}

func testGEMM() GEMM {
	p := hw.Siracusa()
	e := kernels.Elem{Weight: 1, Act: 1, Acc: 4, Reduce: 1}
	g, ok := GEMMOf(kernels.Linear(p, 16, 2048, 5632, e))
	if !ok {
		panic("Linear cost must yield a GEMM")
	}
	return g
}

func TestTilingParseRoundTrip(t *testing.T) {
	for _, s := range []string{"auto", "256x128", "1x1", "2048x32"} {
		tl, err := ParseTiling(s)
		if err != nil {
			t.Fatalf("ParseTiling(%q): %v", s, err)
		}
		back, err := ParseTiling(tl.String())
		if err != nil || back != tl {
			t.Fatalf("round trip %q -> %s -> %s (%v)", s, tl, back, err)
		}
	}
	if tl, err := ParseTiling(""); err != nil || !tl.Zero() {
		t.Fatalf("empty spelling must be auto, got %s, %v", tl, err)
	}
	for _, bad := range []string{"256", "x128", "256x", "0x8", "-4x8", "axb"} {
		if _, err := ParseTiling(bad); err == nil {
			t.Errorf("ParseTiling(%q): want error", bad)
		}
	}
}

func TestGEMMOf(t *testing.T) {
	p := hw.Siracusa()
	e := kernels.Elem{Weight: 1, Act: 1, Acc: 4, Reduce: 1}
	lin := kernels.Linear(p, 4, 512, 256, e)
	g, ok := GEMMOf(lin)
	if !ok {
		t.Fatal("Linear must yield a GEMM")
	}
	if g.M != 4 || g.K != 512 || g.N != 256 || g.WeightElemBytes != 1 || g.ActElemBytes != 1 {
		t.Fatalf("GEMMOf(Linear) = %+v", g)
	}
	if g.ComputeCycles != lin.Cycles {
		t.Fatalf("compute cycles %g != kernel cycles %g", g.ComputeCycles, lin.Cycles)
	}
	// Activation-activation matmuls stream no weights: not tileable.
	if _, ok := GEMMOf(kernels.MatMulAct(p, 4, 512, 256, e)); ok {
		t.Fatal("MatMulAct must not yield a GEMM")
	}
	// Elementwise kernels carry no dims.
	if _, ok := GEMMOf(kernels.Softmax(p, 4, 256, e)); ok {
		t.Fatal("Softmax must not yield a GEMM")
	}
}

// TestPlanConservation checks the per-tile accounting sums to the whole
// GEMM no matter the tiling: weight bytes, activation passes, compute.
func TestPlanConservation(t *testing.T) {
	ch := testChannel()
	g := testGEMM()
	for _, tl := range []Tiling{{}, {K: 2048, N: 32}, {K: 256, N: 128}, {K: 333, N: 77}} {
		p, err := PlanGEMM(ch, g, tl)
		if err != nil {
			t.Fatalf("PlanGEMM(%s): %v", tl, err)
		}
		wantW := int64(g.K) * int64(g.N) * int64(g.WeightElemBytes)
		if p.WeightBytes != wantW {
			t.Errorf("%s: weight bytes %d, want %d", tl, p.WeightBytes, wantW)
		}
		var comp float64
		var l2l1 int64
		for _, tile := range p.All() {
			comp += tile.Comp
			l2l1 += tile.L2L1Bytes
		}
		if math.Abs(comp-g.ComputeCycles) > 1e-6*g.ComputeCycles {
			t.Errorf("%s: compute %g, want %g", tl, comp, g.ComputeCycles)
		}
		// L2L1 = weights + nN activation passes + one output write.
		nN := (g.N + p.Tiling.N - 1) / p.Tiling.N
		wantL2L1 := wantW +
			int64(nN)*int64(g.M)*int64(g.K)*int64(g.ActElemBytes) +
			int64(g.M)*int64(g.N)*int64(g.ActElemBytes)
		if l2l1 != wantL2L1 {
			t.Errorf("%s: l2l1 bytes %d, want %d", tl, l2l1, wantL2L1)
		}
	}
}

func TestPlanRejects(t *testing.T) {
	ch := testChannel()
	g := testGEMM()
	// A tile bigger than the stream-buffer slot must be rejected, not
	// silently clamped.
	if _, err := PlanGEMM(ch, g, Tiling{K: 2048, N: 2048}); err == nil {
		t.Fatal("want slot-overflow error")
	}
	if _, err := PlanGEMM(Channel{}, g, Tiling{}); err == nil {
		t.Fatal("want unconfigured-channel error")
	}
	if _, err := PlanGEMM(ch, GEMM{}, Tiling{}); err == nil {
		t.Fatal("want bad-shape error")
	}
}

func TestAutoTilingFits(t *testing.T) {
	ch := testChannel()
	g := testGEMM()
	tl := AutoTiling(ch, g)
	if int64(tl.K)*int64(tl.N)*int64(g.WeightElemBytes) > ch.SlotBytes {
		t.Fatalf("auto tiling %s exceeds slot %d", tl, ch.SlotBytes)
	}
	// A GEMM that already fits keeps its full shape.
	small := GEMM{M: 1, K: 64, N: 64, WeightElemBytes: 1, ActElemBytes: 1, ComputeCycles: 100}
	if tl := AutoTiling(ch, small); tl.K != 64 || tl.N != 64 {
		t.Fatalf("small GEMM auto tiling = %s", tl)
	}
}

// naiveMakespan replays the plan with an explicit event simulation:
// one channel resource, one work resource, slot drain times tracked
// individually over all Depth+1 slots. Independent of the ring-buffer
// recurrence in Makespan and of its slot clamp.
func naiveMakespan(p *Plan) float64 {
	slots := p.Depth + 1
	slotFree := make([]float64, slots)
	var channelFree, workFree float64
	for i, tile := range p.All() {
		fetchStart := math.Max(channelFree, slotFree[i%slots])
		fetchDone := fetchStart + tile.Fetch
		channelFree = fetchDone
		workStart := math.Max(workFree, fetchDone)
		workDone := workStart + tile.DMA + tile.Comp + tile.Stall
		workFree = workDone
		slotFree[i%slots] = workDone
	}
	return workFree
}

func TestMakespanMatchesNaiveReplay(t *testing.T) {
	ch := testChannel()
	// The small GEMM's ragged 128x96 tiling has 9 tiles, so depths 9
	// and 12 give every tile a fresh slot.
	small := GEMM{M: 4, K: 300, N: 200, WeightElemBytes: 1, ActElemBytes: 1, ComputeCycles: 5e4}
	for _, g := range []GEMM{testGEMM(), small} {
		for _, depth := range []int{1, 2, 4, 9, 12} {
			for _, tl := range []Tiling{{}, {K: 2048, N: 32}, {K: 256, N: 128}, {K: 64, N: 64}, {K: 128, N: 96}} {
				c := ch
				c.Depth = depth
				p, err := PlanGEMM(c, g, tl)
				if err != nil {
					t.Fatalf("PlanGEMM(depth=%d, %s): %v", depth, tl, err)
				}
				got, want := p.Makespan(), naiveMakespan(p)
				if got != want {
					t.Errorf("K=%d depth=%d %s: Makespan %g != naive %g", g.K, depth, tl, got, want)
				}
				if exposed := got - p.WorkCycles(); exposed < -1e-9 {
					t.Errorf("K=%d depth=%d %s: negative exposed cycles %g", g.K, depth, tl, exposed)
				}
			}
		}
	}
}

func TestMakespanMonotoneInDepth(t *testing.T) {
	ch := testChannel()
	g := testGEMM()
	prev := math.Inf(1)
	for _, depth := range []int{1, 2, 4, 8} {
		c := ch
		c.Depth = depth
		p, err := PlanGEMM(c, g, Tiling{K: 256, N: 128})
		if err != nil {
			t.Fatal(err)
		}
		ms := p.Makespan()
		if ms > prev+1e-9 {
			t.Fatalf("depth %d makespan %g worse than shallower %g", depth, ms, prev)
		}
		prev = ms
	}
}

func TestStallMonotoneInBanks(t *testing.T) {
	ch := testChannel()
	g := testGEMM()
	var prev float64 = math.Inf(1)
	for _, banks := range []int{1, 2, 8, 64} {
		c := ch
		c.Banks = banks
		p, err := PlanGEMM(c, g, Tiling{K: 256, N: 128})
		if err != nil {
			t.Fatal(err)
		}
		var stall float64
		for _, tile := range p.All() {
			stall += tile.Stall
		}
		if stall > prev+1e-9 {
			t.Fatalf("banks %d total stall %g worse than fewer banks %g", banks, stall, prev)
		}
		if banks > 1 && stall >= prev {
			t.Fatalf("banks %d stall %g did not strictly improve on %g", banks, stall, prev)
		}
		prev = stall
	}
}

func TestCandidateTilingsFitAndDedupe(t *testing.T) {
	ch := testChannel()
	g := testGEMM()
	cands := CandidateTilings(ch, g)
	if len(cands) < 4 {
		t.Fatalf("only %d candidates for a %dx%d GEMM", len(cands), g.K, g.N)
	}
	seen := make(map[Tiling]bool)
	for _, tl := range cands {
		if seen[tl] {
			t.Fatalf("duplicate candidate %s", tl)
		}
		seen[tl] = true
		if int64(tl.K)*int64(tl.N)*int64(g.WeightElemBytes) > ch.SlotBytes {
			t.Fatalf("candidate %s exceeds slot", tl)
		}
		if _, err := PlanGEMM(ch, g, tl); err != nil {
			t.Fatalf("candidate %s does not plan: %v", tl, err)
		}
	}
	if !seen[AutoTiling(ch, g)] {
		t.Fatalf("auto tiling %s missing from candidates", AutoTiling(ch, g))
	}
}

// TestTilingIsARealTradeoff pins that neither extreme of the candidate
// grid wins: some interior tiling beats both the largest-fitting tile
// (no overlap) and the smallest candidate (setup-dominated), so the
// autotuner has something to find.
func TestTilingIsARealTradeoff(t *testing.T) {
	ch := testChannel()
	g := testGEMM()
	cands := CandidateTilings(ch, g)
	best, worst := math.Inf(1), 0.0
	var bestT Tiling
	for _, tl := range cands {
		p, err := PlanGEMM(ch, g, tl)
		if err != nil {
			t.Fatal(err)
		}
		ms := p.Makespan()
		if ms < best {
			best, bestT = ms, tl
		}
		if ms > worst {
			worst = ms
		}
	}
	if worst <= best {
		t.Fatalf("all %d tilings cost the same (%g)", len(cands), best)
	}
	auto, err := PlanGEMM(ch, g, Tiling{})
	if err != nil {
		t.Fatal(err)
	}
	if best >= auto.Makespan() {
		t.Fatalf("no candidate beats the auto tiling (%s best %g, auto %g)",
			bestT, best, auto.Makespan())
	}
	t.Logf("best %s = %.0f cycles, auto %s = %.0f, worst = %.0f (%.2fx spread)",
		bestT, best, auto.Tiling, auto.Makespan(), worst, worst/best)
}

// refPlan is a tile plan stored the straightforward way, one slice
// entry per tile; planReference builds it. It is the oracle the
// shape-based Plan is held to, bit for bit.
type refPlan struct {
	Tiling                  Tiling
	Tiles, ActPasses        int
	Depth, Banks            int
	Fetch, DMA, Comp, Stall []float64
	L2L1Bytes               []int64
	WeightBytes             int64
}

// planReference prices every tile of the GEMM separately, with the
// same checks and error texts as PlanGEMM.
func planReference(ch Channel, g GEMM, t Tiling) (*refPlan, error) {
	if g.M <= 0 || g.K <= 0 || g.N <= 0 {
		return nil, fmt.Errorf("memsim: GEMM shape %dx%dx%d", g.M, g.K, g.N)
	}
	if ch.BytesPerCycle <= 0 || ch.Banks < 1 || ch.Depth < 1 || ch.SlotBytes <= 0 {
		return nil, fmt.Errorf("memsim: channel not configured (bandwidth %g, depth %d, banks %d, slot %d)",
			ch.BytesPerCycle, ch.Depth, ch.Banks, ch.SlotBytes)
	}
	t = resolveTiling(ch, g, t)
	tk, tn := t.K, t.N
	if tk <= 0 || tn <= 0 {
		return nil, fmt.Errorf("memsim: tiling %s must have positive dims", t)
	}
	if tk > g.K {
		tk = g.K
	}
	if tn > g.N {
		tn = g.N
	}
	wb := int64(g.WeightElemBytes)
	ab := int64(g.ActElemBytes)
	if int64(tk)*int64(tn)*wb > ch.SlotBytes {
		return nil, fmt.Errorf("memsim: tile %dx%d (%d B) exceeds stream-buffer slot (%d B)",
			tk, tn, int64(tk)*int64(tn)*wb, ch.SlotBytes)
	}

	nK := (g.K + tk - 1) / tk
	nN := (g.N + tn - 1) / tn
	tiles := nK * nN
	p := &refPlan{
		Tiling:    Tiling{K: tk, N: tn},
		Tiles:     tiles,
		ActPasses: nN,
		Depth:     ch.Depth,
		Banks:     ch.Banks,
		Fetch:     make([]float64, tiles),
		DMA:       make([]float64, tiles),
		Comp:      make([]float64, tiles),
		Stall:     make([]float64, tiles),
		L2L1Bytes: make([]int64, tiles),
	}

	total := float64(g.K) * float64(g.N)
	i := 0
	for nIdx := 0; nIdx < nN; nIdx++ {
		tnI := tn
		if rem := g.N - nIdx*tn; rem < tn {
			tnI = rem
		}
		for kIdx := 0; kIdx < nK; kIdx++ {
			tkI := tk
			if rem := g.K - kIdx*tk; rem < tk {
				tkI = rem
			}
			wBytes := int64(tkI) * int64(tnI) * wb
			actIn := int64(g.M) * int64(tkI) * ab
			var actOut int64
			if kIdx == nK-1 {
				actOut = int64(g.M) * int64(tnI) * ab
			}
			l2l1 := wBytes + actIn + actOut
			p.Fetch[i] = ch.TransferCycles(wBytes)
			p.DMA[i] = kernels.DMATime(l2l1, ch.L2BytesPerCycle, ch.L2SetupCycles, ch.L1TileBytes)
			p.Comp[i] = g.ComputeCycles * float64(tkI) * float64(tnI) / total
			p.L2L1Bytes[i] = l2l1
			p.WeightBytes += wBytes
			i++
		}
	}
	for i := 0; i < tiles-1; i++ {
		work := p.DMA[i] + p.Comp[i]
		next := p.Fetch[i+1]
		if next < work {
			p.Stall[i] = next / float64(ch.Banks)
		} else {
			p.Stall[i] = work / float64(ch.Banks)
		}
	}
	return p, nil
}

// makespan is the pipeline recurrence over a ring of Depth+1 slots.
func (p *refPlan) makespan() float64 {
	slots := p.Depth + 1
	cdRing := make([]float64, slots)
	var fdPrev, cdPrev float64
	for i := 0; i < p.Tiles; i++ {
		fd := fdPrev
		if drained := cdRing[i%slots]; drained > fd {
			fd = drained
		}
		fd += p.Fetch[i]
		cs := cdPrev
		if fd > cs {
			cs = fd
		}
		cd := cs + p.DMA[i] + p.Comp[i] + p.Stall[i]
		fdPrev, cdPrev = fd, cd
		cdRing[i%slots] = cd
	}
	return cdPrev
}

func (p *refPlan) workCycles() float64 {
	var s float64
	for i := 0; i < p.Tiles; i++ {
		s += p.DMA[i] + p.Comp[i] + p.Stall[i]
	}
	return s
}

// sameBits compares two floats bit for bit (NaN payloads included).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstReference holds PlanGEMM to planReference on one input:
// the same error text, or the same header fields, bit-equal tiles in
// the same order, and a bit-equal makespan and work total. A reference
// deeper than its tile count runs at Depth = Tiles, which leaves no
// slot reused either, so a huge depth stays affordable.
func checkAgainstReference(t *testing.T, ch Channel, g GEMM, tl Tiling) {
	t.Helper()
	got, err := PlanGEMM(ch, g, tl)
	want, refErr := planReference(ch, g, tl)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("%+v %s: error %v, reference %v", g, tl, err, refErr)
	}
	if err != nil {
		return
	}
	if got.Tiling != want.Tiling || got.Tiles != want.Tiles || got.ActPasses != want.ActPasses ||
		got.Depth != want.Depth || got.Banks != want.Banks || got.WeightBytes != want.WeightBytes {
		t.Fatalf("%+v %s: header %+v, reference %+v", g, tl, *got, *want)
	}
	n := 0
	for i, tile := range got.All() {
		if i != n {
			t.Fatalf("%+v %s: walk index %d at step %d", g, tl, i, n)
		}
		if !sameBits(tile.Fetch, want.Fetch[i]) || !sameBits(tile.DMA, want.DMA[i]) ||
			!sameBits(tile.Comp, want.Comp[i]) || !sameBits(tile.Stall, want.Stall[i]) ||
			tile.L2L1Bytes != want.L2L1Bytes[i] {
			t.Fatalf("%+v %s: tile %d = %+v, reference {%g %g %g %g %d}", g, tl, i, tile,
				want.Fetch[i], want.DMA[i], want.Comp[i], want.Stall[i], want.L2L1Bytes[i])
		}
		n++
	}
	if n != want.Tiles {
		t.Fatalf("%+v %s: walked %d tiles, want %d", g, tl, n, want.Tiles)
	}
	if want.Depth > want.Tiles {
		want.Depth = want.Tiles
	}
	if ms, ref := got.Makespan(), want.makespan(); !sameBits(ms, ref) {
		t.Fatalf("%+v %s depth %d: makespan %g, reference %g", g, tl, ch.Depth, ms, ref)
	}
	if w, ref := got.WorkCycles(), want.workCycles(); !sameBits(w, ref) {
		t.Fatalf("%+v %s: work cycles %g, reference %g", g, tl, w, ref)
	}
}

// tooManyTiles reports whether a valid plan of g would have more than
// 1<<15 tiles, too many for the reference's per-tile slices.
func tooManyTiles(ch Channel, g GEMM, tl Tiling) bool {
	if g.K <= 0 || g.N <= 0 {
		return false
	}
	r := resolveTiling(ch, g, tl)
	return r.K > 0 && r.N > 0 && ((g.K+r.K-1)/r.K)*((g.N+r.N-1)/r.N) > 1<<15
}

func TestPlanMatchesReference(t *testing.T) {
	ch := testChannel()
	small := GEMM{M: 4, K: 300, N: 200, WeightElemBytes: 2, ActElemBytes: 1, ComputeCycles: 5e4}
	tilings := []Tiling{{}, {K: 2048, N: 32}, {K: 256, N: 128}, {K: 333, N: 77}, {K: 100, N: 37},
		{K: 1, N: 1}, {K: 4096, N: 4096}, {K: 0, N: 8}, {K: -1, N: -1}}
	for _, g := range []GEMM{testGEMM(), small, {M: 1, K: 1, N: 1, WeightElemBytes: 1, ActElemBytes: 1}, {}} {
		for _, depth := range []int{1, 2, 7, 8, 9, 200, math.MaxInt} {
			for _, banks := range []int{1, 3, 8} {
				c := ch
				c.Depth, c.Banks = depth, banks
				for _, tl := range tilings {
					if !tooManyTiles(c, g, tl) {
						checkAgainstReference(t, c, g, tl)
					}
				}
			}
		}
	}
	checkAgainstReference(t, Channel{}, testGEMM(), Tiling{})
}

// TestPlanWalkStops pins that breaking out of the walk ends it.
func TestPlanWalkStops(t *testing.T) {
	p, err := PlanGEMM(testChannel(), testGEMM(), Tiling{K: 256, N: 128})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range p.All() {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("walked %d tiles after a break at 3", n)
	}
}

// TestHugeDepthIsBounded pins the slot clamp: a plan at the deepest
// representable prefetch depth has the tiles and makespan of one whose
// depth equals its tile count, and pricing it allocates nothing, where
// Depth+1 slots would overflow.
func TestHugeDepthIsBounded(t *testing.T) {
	g := testGEMM()
	tl := Tiling{K: 256, N: 128}
	huge := testChannel()
	huge.Depth = math.MaxInt
	hp, err := PlanGEMM(huge, g, tl)
	if err != nil {
		t.Fatal(err)
	}
	if hp.Slots() != hp.Tiles {
		t.Fatalf("slots %d, want the tile count %d", hp.Slots(), hp.Tiles)
	}
	exact := testChannel()
	exact.Depth = hp.Tiles
	ep, err := PlanGEMM(exact, g, tl)
	if err != nil {
		t.Fatal(err)
	}
	var ht, et []Tile
	for _, tile := range hp.All() {
		ht = append(ht, tile)
	}
	for _, tile := range ep.All() {
		et = append(et, tile)
	}
	if !slices.Equal(ht, et) {
		t.Fatal("a huge depth changed the tiles")
	}
	if got, want := hp.Makespan(), ep.Makespan(); got != want {
		t.Fatalf("makespan at depth MaxInt %g, at depth Tiles %g", got, want)
	}
	if got, want := hp.Makespan(), naiveMakespan(ep); got != want {
		t.Fatalf("makespan at depth MaxInt %g, naive replay %g", got, want)
	}
	if a := testing.AllocsPerRun(20, func() { hp.Makespan() }); a != 0 {
		t.Fatalf("Makespan at depth MaxInt allocates %.0f times", a)
	}
}

// TestPlanAllocs pins the price of one prediction at the LPDDR5 depth:
// the Plan itself, and nothing per tile or per slot.
func TestPlanAllocs(t *testing.T) {
	ch := testChannel()
	g := testGEMM()
	var sink float64
	a := testing.AllocsPerRun(50, func() {
		p, err := PlanGEMM(ch, g, Tiling{K: 256, N: 128})
		if err != nil {
			t.Fatal(err)
		}
		sink += p.Makespan() + p.WorkCycles()
	})
	if a > 1 {
		t.Fatalf("PlanGEMM plus Makespan allocates %.0f times, want at most 1 (the Plan)", a)
	}
	_ = sink
}

// hugeDepths are the depths FuzzPlanGEMM maps its top depth bytes to.
var hugeDepths = []int{1 << 20, math.MaxInt32, math.MaxInt - 1, math.MaxInt}

// FuzzPlanGEMM holds PlanGEMM to planReference over GEMM shapes
// (non-positive ones included), element widths 1-8, any compute
// cycles, and auto, ragged, oversized and over-slot tilings, at
// prefetch depths 1-64 plus huge ones and 1-256 banks. Inputs of more
// than 1<<15 tiles are skipped: the reference allocates per tile.
func FuzzPlanGEMM(f *testing.F) {
	f.Fuzz(func(t *testing.T, m, k, n int16, wb, ab uint8, cycles float64, tk, tn int16, depth, banks uint8) {
		g := GEMM{M: int(m), K: int(k), N: int(n),
			WeightElemBytes: 1 + int(wb)%8, ActElemBytes: 1 + int(ab)%8, ComputeCycles: cycles}
		tl := Tiling{K: int(tk), N: int(tn)}
		ch := testChannel()
		ch.Depth, ch.Banks = 1+int(depth)%64, 1+int(banks)
		if depth >= 192 {
			ch.Depth = hugeDepths[int(depth)%len(hugeDepths)]
		}
		if tooManyTiles(ch, g, tl) {
			t.Skip("too many tiles for the reference")
		}
		checkAgainstReference(t, ch, g, tl)
	})
}

// FuzzParseTiling: ParseTiling never panics, and an accepted input's
// String() parses back to the same tiling with the same spelling.
func FuzzParseTiling(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		tl, err := ParseTiling(s)
		if err != nil {
			return
		}
		spelled := tl.String()
		back, err := ParseTiling(spelled)
		if err != nil {
			t.Fatalf("%q parsed to %s, which does not parse back: %v", s, spelled, err)
		}
		if back != tl || back.String() != spelled {
			t.Fatalf("%q -> %s -> %s", s, spelled, back)
		}
	})
}

// WorkCycles is the chip-busy portion of the plan: every tile's DMA,
// compute, and stall time (the part billed to the compute/DMA
// breakdown).
func (p *Plan) WorkCycles() float64 {
	var s float64
	for _, t := range p.All() {
		s += t.DMA + t.Comp + t.Stall
	}
	return s
}
