package perfsim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"mcudist/internal/collective"
	"mcudist/internal/deploy"
	"mcudist/internal/hw"
	"mcudist/internal/interconnect"
	"mcudist/internal/kernels"
	"mcudist/internal/partition"
	"mcudist/internal/trace"
)

// refHopPrice is one entry of the reference loop's per-class memo: the
// bytes a hop carrying share frac of a tile moves, and their nominal
// duration.
type refHopPrice struct {
	tile    int64
	frac    float64
	payload int64
	dur     float64
}

// syncReference is sync as it ran when every hop of a tile went through
// one loop, hopsReference, that priced, occupied and billed it inline:
// the oracle FuzzSyncMatchesReference holds sync to. Its memos are
// local; the arena's price tables and hop counts are never read.
func (s *Sim) syncReference(step *deploy.Sync, ready []float64) []float64 {
	s.syncs++
	n := s.d.Plan.Chips
	lo := s.schedFor(step.Class)
	sc := lo.sc
	acc := &s.classAcc[step.Class]
	acc.topology = sc.Topology
	acc.syncs++

	tiles := appendTiles(nil, step.ReducePayload)
	nt := len(tiles)
	bcastTiles := appendTiles(nil, step.BcastPayload)
	for len(bcastTiles) < nt {
		bcastTiles = append(bcastTiles, 0)
	}
	if len(bcastTiles) > nt {
		merged := int64(0)
		for _, b := range bcastTiles[nt-1:] {
			merged += b
		}
		bcastTiles = append(bcastTiles[:nt-1], merged)
	}

	arrive := s.syncB
	if s.flip = !s.flip; s.flip {
		arrive = s.syncA
	}
	copy(arrive, ready)

	chunks := sc.Chunks
	s.chunks = chunks
	partial := s.partial
	has := s.has
	memo := make([]refHopPrice, len(s.classes))
	var add kernelPrice
	rootWork := step.RootWork
	roots := make([]kernelPrice, len(rootWork))
	for k := 0; k < nt; k++ {
		frac := 1.0 / float64(nt)
		for c := 0; c < n; c++ {
			for q := 0; q < chunks; q++ {
				partial[c*chunks+q] = ready[c]
				has[c*chunks+q] = 0
			}
		}
		s.hopsReference(sc.Reduce, sc.Keys, lo.ids, memo, &step.Add, &add, acc, tiles[k], frac, ready, arrive, true)
		for _, f := range sc.Final {
			t := partial[f.Chip*chunks+f.Chunk]
			for i := range rootWork {
				t = s.execScaled(f.Chip, t, &rootWork[i], frac*f.Frac, &roots[i])
			}
			if t > arrive[f.Chip] {
				arrive[f.Chip] = t
			}
			has[f.Chip*chunks+f.Chunk] = t
		}
		s.hopsReference(sc.Broadcast, sc.Keys, lo.ids, memo, &step.Add, &add, acc, bcastTiles[k], frac, ready, arrive, false)
	}
	return arrive
}

// hopsReference is the one hop loop reduce and broadcast replaced, as
// it was but for where it keeps its memos and how it finds a hop's
// class (through the hop's price key). Each hop moves its Frac of tile
// across the directed link From->To at its class's rate, priced through
// a per-class memo; bills the link time and bytes to the sender, and to
// acc (nil outside a collective); raises both chips' End; and, on a
// reduce, runs the receiver's share*Frac of the reduce add addCost,
// repriced whenever that fraction changes.
func (s *Sim) hopsReference(list []interconnect.Hop, keys []interconnect.PriceKey, ids []int32, memo []refHopPrice, addCost *kernels.Cost, addMemo *kernelPrice,
	acc *classAccum, tile int64, share float64, ready, arrive []float64, reduce bool) float64 {
	n, chunks, freqHz, tl := s.n, s.chunks, s.freqHz, s.tl
	partial, has, links, stats := s.partial, s.has, s.linkFree, s.stats
	classes, dma, cluster := s.classes, s.dma, s.cluster
	degChip, degFactor, strChip, strFactor := s.degChip, s.degFactor, s.strChip, s.strFactor
	add := *addMemo
	var end float64
	for i := range list {
		h := &list[i]
		from, to := h.From, h.To
		var start float64
		switch {
		case !reduce:
			start = has[from*chunks+h.Chunk]
		case h.FromAccumulated:
			start = partial[from*chunks+h.Chunk]
		default:
			start = ready[from]
		}
		id := ids[keys[h.Key()].Class]
		m := &memo[id]
		if m.tile != tile || m.frac != h.Frac {
			payload := interconnect.ScalePayload(tile, h.Frac)
			*m = refHopPrice{tile: tile, frac: h.Frac, payload: payload, dur: classes[id].TransferCycles(freqHz, payload)}
		}
		payload, dur := m.payload, m.dur
		if degFactor > 0 && (from == degChip || to == degChip) {
			dur /= degFactor
		}
		end = use(&links[from*n+to], start, dur)
		if tl != nil {
			l := &s.links[from*n+to]
			if l.category == "" {
				l.category, l.label = fmt.Sprintf("link%d-%d", from, to), fmt.Sprintf("%d->%d", from, to)
			}
			s.span(from, l.category, l.label, end-dur, end)
		}
		st, rt := &stats[from], &stats[to]
		st.C2CCycles += dur
		st.C2CSentBytes += payload
		st.C2CCyclesByClass[id] += dur
		st.C2CSentBytesByClass[id] += payload
		if acc != nil {
			acc.cycles += dur
			acc.bytes += payload
			acc.byLink[id] += payload
		}
		if end > st.End {
			st.End = end
		}
		if end > rt.End {
			rt.End = end
		}
		q := to*chunks + h.Chunk
		if !reduce {
			if end > has[q] {
				has[q] = end
			}
			if end > arrive[to] {
				arrive[to] = end
			}
			continue
		}
		t := maxF(end, partial[q])
		if f := share * h.Frac; add.frac != f {
			add = s.price(int64(float64(addCost.ActInBytes)*f)+int64(float64(addCost.ActOutBytes)*f), addCost.Cycles*f)
			add.frac = f
		}
		if add.bytes > 0 {
			t = use(&dma[to], t, add.dmaT)
			if tl != nil {
				s.span(to, "dma-l2l1", addCost.Name, t-add.dmaT, t)
			}
			rt.L2L1Cycles += add.dmaT
			rt.L2L1Bytes += add.bytes
		}
		if add.cycles > 0 {
			cycles := add.cycles
			if strFactor > 0 && to == strChip {
				cycles /= strFactor
			}
			t = use(&cluster[to], t, cycles)
			if tl != nil {
				s.span(to, "compute", addCost.Name, t-cycles, t)
			}
			rt.ComputeCycles += cycles
		}
		if t > rt.End {
			rt.End = t
		}
		partial[q] = t
	}
	*addMemo = add
	return end
}

// randomSchedule draws a schedule Validate accepts over n chips and
// chunks chunks: per chunk, a reduce up a random tree onto a random
// finalizing chip (children before parents; a leaf sends its original
// partial or its accumulator at random, an inner chip its accumulator)
// and a broadcast down another random tree from it. The chunks' hop
// sequences interleave at random, and every hop and finalize draws its
// fraction from a small set, so one link class can carry several.
func randomSchedule(rng *rand.Rand, n, chunks int) *interconnect.Schedule {
	fracs := []float64{1, 0.5, 1 / float64(n), 0.3, rng.Float64()*0.99 + 0.01}
	frac := func() float64 { return fracs[rng.IntN(len(fracs))] }
	s := &interconnect.Schedule{Topology: hw.TopoTree, N: n, Chunks: chunks, Depth: 1}
	var reduce, bcast [][]interconnect.Hop
	for q := 0; q < chunks; q++ {
		root := rng.IntN(n)
		order := rng.Perm(n)
		for i, c := range order {
			if c == root {
				order[0], order[i] = order[i], order[0]
			}
		}
		up := make([]int, n)
		inner := make([]bool, n)
		for i := 1; i < n; i++ {
			up[order[i]] = order[rng.IntN(i)]
			inner[up[order[i]]] = true
		}
		var r, b []interconnect.Hop
		for i := n - 1; i > 0; i-- {
			c := order[i]
			r = append(r, interconnect.Hop{From: c, To: up[c], Chunk: q, Frac: frac(), FromAccumulated: inner[c] || rng.IntN(2) == 0})
		}
		for i := 1; i < n; i++ {
			c := order[i]
			b = append(b, interconnect.Hop{From: order[rng.IntN(i)], To: c, Chunk: q, Frac: frac()})
		}
		reduce, bcast = append(reduce, r), append(bcast, b)
		s.Final = append(s.Final, interconnect.Final{Chip: root, Chunk: q, Frac: frac()})
	}
	interleave := func(lists [][]interconnect.Hop) []interconnect.Hop {
		var out []interconnect.Hop
		for {
			var live []int
			for q, l := range lists {
				if len(l) > 0 {
					live = append(live, q)
				}
			}
			if len(live) == 0 {
				return out
			}
			q := live[rng.IntN(len(live))]
			out = append(out, lists[q][0])
			lists[q] = lists[q][1:]
		}
	}
	s.Reduce, s.Broadcast = interleave(reduce), interleave(bcast)
	return s
}

// randomClass draws a link class with a bandwidth and setup cost that
// keep every transfer finite.
func randomClass(rng *rand.Rand) hw.LinkClass {
	return hw.LinkClass{BandwidthBytesPerSec: 1e7 + rng.Float64()*1e9, SetupCycles: rng.IntN(600), EnergyPJPerByte: 100}
}

// randomCost draws a kernel cost, zero at times so adds that move no
// bytes or take no cycles run too.
func randomCost(rng *rand.Rand, name string) kernels.Cost {
	c := kernels.Cost{Name: name}
	if rng.IntN(4) > 0 {
		c.ActInBytes = int64(rng.IntN(200_000))
		c.ActOutBytes = int64(rng.IntN(100_000))
	}
	if rng.IntN(4) > 0 {
		c.Cycles = rng.Float64() * 2e5
	}
	return c
}

// FuzzSyncMatchesReference runs one synchronization on two arenas bound
// alike, one through sync and one through syncReference, and requires
// identical link, DMA, cluster and L3 free times, readiness matrices,
// arrivals, ChipStats (End included, settled by foldEnds on sync's
// side) and class accumulators, and the same trace. The seed draws the
// chip count, a uniform or clustered network of random classes, a
// schedule — a random one (randomSchedule) or a lowered tree, star,
// ring or fully-connected exchange — the reduce and broadcast payloads
// (up to five tiles each), the reduce add and root work, random ready
// times, and a degraded chip and a straggler at random factors. Each
// chip's End starts at its ready time, as in a run, where every time a
// sync starts from is one its chips have reached.
func FuzzSyncMatchesReference(f *testing.F) {
	for seed := uint64(0); seed < 64; seed++ {
		f.Add(seed, seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed uint64, traced bool) {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		n := 2 + rng.IntN(11)
		plat := hw.Siracusa()
		if rng.IntN(3) == 0 {
			plat.Network = hw.UniformNetwork(randomClass(rng))
		} else {
			plat.Network = hw.ClusteredNetwork(randomClass(rng), randomClass(rng), 1+rng.IntN(n))
		}
		var sched *interconnect.Schedule
		if shape := rng.IntN(6); shape < len(hw.Topologies()) {
			plat.Topology = hw.Topologies()[shape]
			plat.GroupSize = 2 + rng.IntN(4)
			var err error
			if sched, err = interconnect.NewSchedule(plat, n); err != nil {
				t.Fatal(err)
			}
		} else {
			sched = randomSchedule(rng, n, 1+rng.IntN(3))
			if err := sched.Annotate(plat.Network); err != nil {
				t.Fatal(err)
			}
		}
		if err := sched.Validate(); err != nil {
			t.Fatalf("drew a schedule Validate rejects: %v", err)
		}
		var opts deploy.Options
		if rng.IntN(2) == 0 {
			opts.DegradedLinkChip, opts.DegradedLinkFactor = rng.IntN(n), 0.05+rng.Float64()*0.95
		}
		if rng.IntN(2) == 0 {
			opts.StragglerChip, opts.StragglerFactor = rng.IntN(n), 0.05+rng.Float64()*0.95
		}
		d := &deploy.Deployment{
			Plan:    &partition.Plan{Chips: n},
			HW:      plat,
			Options: opts,
			Chips:   make([]*deploy.ChipDeploy, n),
		}
		step := &deploy.Sync{Add: randomCost(rng, "add")}
		for c := range d.Chips {
			d.Chips[c] = &deploy.ChipDeploy{}
		}
		for k := rng.IntN(3); k > 0; k-- {
			step.RootWork = append(step.RootWork, randomCost(rng, "root"))
		}
		step.ReducePayload = int64(rng.IntN(5 * deploy.DefaultCommTileBytes))
		step.BcastPayload = int64(rng.IntN(5 * deploy.DefaultCommTileBytes))
		ready := make([]float64, n)
		for c := range ready {
			ready[c] = rng.Float64() * 1e6
		}
		step.Class = collective.SyncClass(rng.IntN(int(collective.NumSyncClasses)))

		sims := [2]*Sim{NewSim(), NewSim()}
		var tls [2]*trace.Timeline
		for i, s := range sims {
			if traced {
				tls[i] = &trace.Timeline{}
			}
			if err := s.bind(d, sched, tls[i]); err != nil {
				t.Fatal(err)
			}
			for c := range ready {
				s.stats[c].End = ready[c]
			}
		}
		got := sims[0].sync(step, ready)
		sims[0].foldEnds()
		want := sims[1].syncReference(step, ready)

		a, b := sims[0], sims[1]
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"link free times", a.linkFree, b.linkFree},
			{"cluster, DMA and io free times", a.chipFree, b.chipFree},
			{"partial", a.partial, b.partial},
			{"has", a.has, b.has},
			{"arrivals", got, want},
		} {
			for i := range c.want {
				if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
					t.Fatalf("%s[%d] = %v, reference %v", c.name, i, c.got[i], c.want[i])
				}
			}
		}
		if g, w := fmt.Sprintf("%#v", a.stats), fmt.Sprintf("%#v", b.stats); g != w {
			t.Fatalf("chip stats differ:\n got %s\nwant %s", g, w)
		}
		if g, w := fmt.Sprintf("%#v", a.classAcc), fmt.Sprintf("%#v", b.classAcc); g != w {
			t.Fatalf("class accumulators differ:\n got %s\nwant %s", g, w)
		}
		if traced {
			if g, w := fmt.Sprint(tls[0].Spans()), fmt.Sprint(tls[1].Spans()); g != w {
				t.Fatalf("traces differ:\n got %s\nwant %s", g, w)
			}
		}
	})
}
