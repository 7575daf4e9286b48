// Package evalpool is the concurrent evaluation engine behind every
// figure, table, ablation, and design-space sweep: a worker pool that
// fans (System, Workload) points out across CPUs plus a memoized,
// concurrency-safe report cache keyed by the exact configuration, so
// a point shared by several figures (the 1-chip TinyLlama baseline
// appears in Fig. 4, Fig. 5, Table I, and the headline metrics) is
// simulated exactly once per process.
//
// It is the one place concurrency lives. Each is the worker loop
// behind Map, the fleet's pre-pricing and the paper studies that run
// side by side, and the pool's worker count bounds every fill (a
// store read or a simulation) in flight across all callers at once,
// however many Each loops nest: a -workers flag bounds the whole
// process's evaluation work, not one loop's goroutines. MapFills also
// reports how many points one call filled itself; searches bill their
// exact evaluations from it, so work running beside a search never
// reaches its bill, where a delta of the process-wide counters would
// count it.
//
// The engine is guaranteed to produce byte-identical results to the
// serial path (core.Run in a loop): results are returned
// in input order, errors are reported for the lowest failing input
// index, and core.Run shares no mutable state between runs. The
// equivalence is locked in by TestPoolMatchesSerial and a race-detector
// pass over this package.
//
// The in-process cache is the fast tier of a two-tier design: a pool
// may additionally be attached (SetStore) to a persistent
// resultstore.Store, which is consulted on every memory miss and
// appended to on every successful fill. Errors never reach the store —
// a failure may be transient, so it is retried in any process that has
// not already memoized it. Stats exposes the tier split (memory hits /
// disk hits / exact simulations) so searches and CLIs can report
// exactly what a cache saved.
//
// Cold-cache concurrency is singleflighted: when N workers race on
// the same uncached point, one evaluation runs and the other N-1 wait
// for it and share its result, so exactly one exact simulation (or
// disk read) ever executes per distinct point — a guarantee that
// holds even across Reset, because the in-flight registry survives
// the cache drop.
//
// Reports returned by the engine may be shared between callers and
// must be treated as immutable.
package evalpool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mcudist/internal/core"
	"mcudist/internal/resultstore"
)

// Point is one configuration to evaluate: a fully specified system
// and workload. Point is a comparable struct and doubles as the cache
// key, so two Points request the same cache entry exactly when every
// hardware parameter, planner option, model field, and sequence length
// matches.
type Point struct {
	System   core.System
	Workload core.Workload
}

// Pool is a worker-pool evaluator with a memoized report cache. The
// zero value is not usable; construct with New. A Pool is safe for
// concurrent use by multiple goroutines.
type Pool struct {
	workers int
	// fills holds one token per fill in flight: at most workers fills
	// run at once across every caller.
	fills chan struct{}

	// sims counts cache-miss evaluations (core.Run invocations) over
	// the pool's lifetime and survives Reset. evals counts memory
	// misses regardless of which tier fills them (disk hit or
	// simulation) — the storage-independent "distinct exact
	// evaluations" every caller together needed.
	sims  atomic.Uint64
	evals atomic.Uint64
	// memHits counts requests answered by an already-settled (or
	// in-flight) in-process cache entry; diskHits counts memory misses
	// filled from the persistent store instead of a simulation.
	memHits  atomic.Uint64
	diskHits atomic.Uint64

	// store is the optional persistent tier (nil when detached).
	store atomic.Pointer[resultstore.Store]

	mu sync.Mutex
	// cache/errs hold settled evaluations (errors are memoized
	// in-process only, never persisted); inflight is the singleflight
	// registry: at most one evaluation per Point is ever running, and
	// every concurrent requester of that Point waits on the same
	// flight. inflight deliberately survives Reset — a result being
	// computed when the cache is dropped still settles once and is
	// shared by everyone already waiting on it.
	cache    map[Point]*core.Report
	errs     map[Point]error
	inflight map[Point]*flight
}

// Stats is a snapshot of a pool's cache-tier counters. All three
// survive Reset, so the cost profile of a stretch of the process is
// the delta of snapshots taken around it, whatever ran in it.
type Stats struct {
	// MemoryHits counts requests served by the in-process cache.
	MemoryHits uint64
	// DiskHits counts memory misses filled from the persistent store.
	DiskHits uint64
	// Simulations counts exact core.Run invocations.
	Simulations uint64
}

// flight is one in-progress evaluation shared by every concurrent
// requester of the same Point: the owner fills rep/err and closes
// done; joiners block on done and read the settled result.
type flight struct {
	done chan struct{}
	rep  *core.Report
	err  error
}

// New returns a Pool evaluating up to workers points concurrently:
// Each runs at most workers goroutines per call, and at most workers
// fills run at once across all callers. workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers:  workers,
		fills:    make(chan struct{}, workers),
		cache:    make(map[Point]*core.Report),
		errs:     make(map[Point]error),
		inflight: make(map[Point]*flight),
	}
}

// Workers returns the pool's concurrency limit.
func (p *Pool) Workers() int { return p.workers }

// Reset drops every memoized report (and memoized error). In-flight
// evaluations are untouched: they settle exactly once into the
// post-Reset cache, still shared by every requester that joined them.
func (p *Pool) Reset() {
	p.mu.Lock()
	p.cache = make(map[Point]*core.Report)
	p.errs = make(map[Point]error)
	p.mu.Unlock()
}

// Run evaluates one point through the cache tiers: the in-process
// memo first, then the attached persistent store (if any), and only
// then an exact core.Run — whose successful report is appended to the
// store for every later process. Concurrent requests for the same
// point are collapsed into one in-flight evaluation (simulation
// singleflight): exactly one core.Run executes per point no matter
// how many workers race on a cold cache, and the registry survives
// Reset so not even a cache drop can double-simulate a point. Failed
// evaluations are memoized for this process's lifetime (until Reset)
// but never persisted.
func (p *Pool) Run(sys core.System, wl core.Workload) (*core.Report, error) {
	rep, _, err := p.run(sys, wl)
	return rep, err
}

// run is Run that also reports whether this call filled the point
// itself, rather than finding it settled or joining another caller's
// flight. The fill waits for one of the pool's fill tokens.
func (p *Pool) run(sys core.System, wl core.Workload) (*core.Report, bool, error) {
	key := Point{System: sys, Workload: wl}
	p.mu.Lock()
	if rep, ok := p.cache[key]; ok {
		p.mu.Unlock()
		p.memHits.Add(1)
		return rep, false, nil
	}
	if err, ok := p.errs[key]; ok {
		p.mu.Unlock()
		p.memHits.Add(1)
		return nil, false, err
	}
	if f, ok := p.inflight[key]; ok {
		p.mu.Unlock()
		p.memHits.Add(1)
		<-f.done
		return f.rep, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	p.inflight[key] = f
	p.mu.Unlock()

	p.fills <- struct{}{}
	f.rep, f.err = p.fill(sys, wl)
	<-p.fills

	p.mu.Lock()
	delete(p.inflight, key)
	if f.err == nil {
		p.cache[key] = f.rep
	} else {
		p.errs[key] = f.err
	}
	p.mu.Unlock()
	close(f.done)
	return f.rep, true, f.err
}

// simulate is the exact evaluation fill runs on a miss in both tiers;
// tests replace it to hold a flight open.
var simulate = core.Run

// fill resolves one memory miss: the persistent store if attached,
// an exact simulation otherwise. Exactly one fill runs per point at
// any time (the caller holds the point's flight).
func (p *Pool) fill(sys core.System, wl core.Workload) (*core.Report, error) {
	p.evals.Add(1)
	if s := p.store.Load(); s != nil {
		if rep, hit := s.Load(sys, wl); hit {
			p.diskHits.Add(1)
			return rep, nil
		}
	}
	p.sims.Add(1)
	rep, err := simulate(sys, wl)
	if err == nil {
		if s := p.store.Load(); s != nil {
			// A failed append degrades the store to a smaller cache,
			// never the evaluation itself.
			_ = s.Append(sys, wl, rep)
		}
	}
	return rep, err
}

// SetStore attaches (or, with nil, detaches) a persistent result
// store as the pool's second cache tier. Safe to call concurrently
// with Run; in-flight evaluations settle against whichever store they
// observed.
func (p *Pool) SetStore(s *resultstore.Store) { p.store.Store(s) }

// Store returns the attached persistent store, or nil.
func (p *Pool) Store() *resultstore.Store { return p.store.Load() }

// Simulations returns the number of cache-miss evaluations — actual
// core.Run invocations — the pool has executed since construction.
// Cache hits leave it unchanged, and Reset does not rewind it. It is
// process-wide: a delta around one piece of work also counts whatever
// ran beside it.
func (p *Pool) Simulations() uint64 { return p.sims.Load() }

// Evaluations returns the number of memory-memo misses the pool has
// settled — exact evaluations callers needed, whether a simulation
// ran or the persistent store answered; Simulations is the subset
// that actually invoked core.Run. Like Simulations it is process-wide,
// so searches do not meter themselves by its delta: each bills the
// fills its own MapFills calls report, which equal the delta when the
// search runs alone and stay exact when other work overlaps it.
func (p *Pool) Evaluations() uint64 { return p.evals.Load() }

// Stats returns a snapshot of the pool's lifetime cache counters.
func (p *Pool) Stats() Stats {
	return Stats{
		MemoryHits:  p.memHits.Load(),
		DiskHits:    p.diskHits.Load(),
		Simulations: p.sims.Load(),
	}
}

// Each calls f(i) for every i in [0, n) on up to the pool's worker
// count of goroutines, the caller's among them, and returns the error
// of the lowest failing index once every call has returned, so the
// error does not depend on scheduling. With one worker (or n <= 1) it
// calls f in index order on the calling goroutine. Each may nest: the
// fills the calls start share the pool's one fill bound.
func (p *Pool) Each(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = f(i)
		}
	}
	var wg sync.WaitGroup
	for range min(p.workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map evaluates every point on the worker pool and returns reports in
// input order. On failure it returns the error of the lowest failing
// index — the same error the serial loop would hit first — so error
// behavior is deterministic regardless of scheduling.
func (p *Pool) Map(points []Point) ([]*core.Report, error) {
	reports, _, err := p.MapFills(points)
	return reports, err
}

// MapFills is Map that also returns how many of the points this call
// filled itself, from the store or by simulation, failing ones
// included; a point found settled or in flight for another caller is
// not counted. Run alone, the count equals the Evaluations delta
// around the call, and it is returned with an error too.
func (p *Pool) MapFills(points []Point) ([]*core.Report, int, error) {
	reports := make([]*core.Report, len(points))
	var fills atomic.Int64
	err := p.Each(len(points), func(i int) error {
		rep, filled, err := p.run(points[i].System, points[i].Workload)
		if filled {
			fills.Add(1)
		}
		if err != nil {
			return fmt.Errorf("evalpool: point %d (%d chips): %w", i, points[i].System.Chips, err)
		}
		reports[i] = rep
		return nil
	})
	if err != nil {
		return nil, int(fills.Load()), err
	}
	return reports, int(fills.Load()), nil
}

// Eval runs the workload across several chip counts on otherwise
// identical systems — the pooled equivalent of core.Run in a loop over
// the chip counts, returning reports in chip-list order.
func (p *Pool) Eval(base core.System, wl core.Workload, chips []int) ([]*core.Report, error) {
	points := make([]Point, len(chips))
	for i, n := range chips {
		sys := base
		sys.Chips = n
		points[i] = Point{System: sys, Workload: wl}
	}
	return p.Map(points)
}

// The default pool serves package-level calls. Every consumer in the
// repository (root facade, explore, experiments, cmds) shares it, so
// configurations repeated across figures are computed once per
// process.
var (
	defaultMu   sync.RWMutex
	defaultPool = New(0)
)

// SetWorkers replaces the default pool with one of the given
// concurrency (<= 0 selects GOMAXPROCS), dropping the accumulated
// cache and restarting the counters but keeping any attached
// persistent store. Commands call this once at startup from their
// -workers flag; it is not intended to race with in-flight
// evaluations.
func SetWorkers(n int) {
	defaultMu.Lock()
	store := defaultPool.Store()
	defaultPool = New(n)
	defaultPool.SetStore(store)
	defaultMu.Unlock()
}

// Default returns the process-wide shared pool.
func Default() *Pool {
	defaultMu.RLock()
	defer defaultMu.RUnlock()
	return defaultPool
}

// ResetCache drops the default pool's memoized reports — the release
// valve for long-lived processes sweeping unbounded configuration
// spaces (the cache has no eviction of its own).
func ResetCache() { Default().Reset() }

// Simulations returns the default pool's cache-miss evaluation count
// (see Pool.Simulations). SetWorkers replaces the pool and therefore
// restarts the counter.
func Simulations() uint64 { return Default().Simulations() }

// Evaluations returns the default pool's memory-miss count (see
// Pool.Evaluations).
func Evaluations() uint64 { return Default().Evaluations() }

// SetStore attaches a persistent result store to the default pool
// (nil detaches). The attachment survives SetWorkers.
func SetStore(s *resultstore.Store) { Default().SetStore(s) }

// GetStats returns the default pool's cache-tier counters.
func GetStats() Stats { return Default().Stats() }

// Run evaluates one point on the default pool's cache.
func Run(sys core.System, wl core.Workload) (*core.Report, error) {
	return Default().Run(sys, wl)
}

// Map evaluates points on the default pool.
func Map(points []Point) ([]*core.Report, error) {
	return Default().Map(points)
}

// MapFills evaluates points on the default pool and counts this
// call's fills (see Pool.MapFills).
func MapFills(points []Point) ([]*core.Report, int, error) {
	return Default().MapFills(points)
}

// Each runs f over [0, n) on the default pool's workers (see
// Pool.Each).
func Each(n int, f func(i int) error) error {
	return Default().Each(n, f)
}

// Eval sweeps chip counts on the default pool.
func Eval(base core.System, wl core.Workload, chips []int) ([]*core.Report, error) {
	return Default().Eval(base, wl, chips)
}
