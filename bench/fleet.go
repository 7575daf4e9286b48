package main

import (
	"fmt"
	"os"
	"reflect"
	"time"

	"mcudist/internal/core"
	"mcudist/internal/evalpool"
	"mcudist/internal/fleet"
	"mcudist/internal/interconnect"
	"mcudist/internal/model"
)

// fleetRates are the offered loads replayed each rep: 50 req/s runs
// below the two-group fleet's knee (unbatched steps), 200 at it and
// 800 saturated (batch-8 steps).
var fleetRates = []float64{50, 200, 800}

// fleetReplay is the fleet-scheduler workload: per rep, one fleet.Run
// per seeded Poisson trace on TinyLlamaScaled64 served by two 64-chip
// groups, every step price already in the memo, so the scheduler and
// its local price caches do nearly all the work.
type fleetReplay struct {
	c      *config
	traces []fleet.Trace
	// results of the rep that just ran, the first rep's metrics (which
	// every later rep and the reference run must equal), and the
	// per-run counters summed over timed reps.
	got    []*fleet.Result
	errs   []error
	ref    []fleet.Metrics
	traced bool
	steps  int
	runs   int
	shapes int
	evals  uint64
	sims   uint64
	opBase int
}

func (f *fleetReplay) tailPct() float64 { return 90 }

func (f *fleetReplay) options(tr fleet.Trace) fleet.Options {
	return fleet.Options{
		Trace:  tr,
		System: core.DefaultSystem(64),
		Model:  model.TinyLlamaScaled64(),
		Groups: 2,
	}
}

// traceSeed derives one trace seed per rate from the benchmark seed.
func (f *fleetReplay) traceSeed(i int) uint64 {
	return f.c.seed*uint64(len(fleetRates)) + uint64(i) + 1
}

func (f *fleetReplay) trace(i int) fleet.Trace {
	return fleet.PoissonTrace(fleet.TraceOptions{
		Requests: f.c.fleetRequests, RatePerSecond: fleetRates[i], Seed: f.traceSeed(i),
	})
}

// setup generates the traces and primes pricing with one cold run per
// rate.
func (f *fleetReplay) setup() error {
	evalpool.ResetCache()
	interconnect.ResetScheduleCache()
	f.traces = f.traces[:0]
	for i := range fleetRates {
		f.traces = append(f.traces, f.trace(i))
	}
	for i, tr := range f.traces {
		if _, err := fleet.Run(f.options(tr)); err != nil {
			return fmt.Errorf("prime %g req/s: %w", fleetRates[i], err)
		}
	}
	f.got = make([]*fleet.Result, len(fleetRates))
	f.errs = make([]error, len(fleetRates))
	f.ref = nil
	return nil
}

func (f *fleetReplay) teardown() {}

func (f *fleetReplay) beforeRep() {}

func (f *fleetReplay) rep(rec *recorder) []time.Duration {
	f.traced = rec != nil
	lats := make([]time.Duration, len(f.traces))
	for i := range f.traces {
		tr := f.traces[i]
		op := f.opBase + i
		if rec != nil {
			sp := rec.begin("fleet.trace", -1, op, 0)
			tr = f.trace(i)
			rec.end(sp)
		}
		t0 := time.Now()
		sp := rec.begin("fleet.run", -1, op, 0)
		f.got[i], f.errs[i] = fleet.Run(f.options(tr))
		rec.end(sp)
		lats[i] = time.Since(t0)
	}
	f.opBase += len(f.traces)
	return lats
}

// check requires every run to complete its trace and to repeat the
// first rep's metrics exactly.
func (f *fleetReplay) check() int {
	failed := 0
	first := f.ref == nil
	if first {
		f.ref = make([]fleet.Metrics, len(f.got))
	}
	for i, res := range f.got {
		if f.errs[i] != nil {
			fmt.Fprintf(os.Stderr, "fleet-replay: %g req/s: %v\n", fleetRates[i], f.errs[i])
			failed++
			continue
		}
		m := res.Metrics
		if first {
			f.ref[i] = m
		}
		switch {
		case m.Completed != m.Requests:
			fmt.Fprintf(os.Stderr, "fleet-replay: %g req/s: %d of %d requests completed\n", fleetRates[i], m.Completed, m.Requests)
			failed++
		case !reflect.DeepEqual(m, f.ref[i]):
			fmt.Fprintf(os.Stderr, "fleet-replay: %g req/s: metrics differ from the first rep\n", fleetRates[i])
			failed++
		}
		if f.traced {
			f.steps += m.PrefillSteps + m.DecodeSteps
		} else {
			f.runs++
			f.shapes += res.DistinctShapes
			f.evals += res.Evaluations
			f.sims += res.ExactSims
		}
	}
	return failed
}

// finish makes one reference run per rate with pre-pricing off — the
// strictly serial path pre-pricing is pinned to — and requires every
// rep's metrics to equal it.
func (f *fleetReplay) finish(m metrics, lt layerTimes) int {
	failed := 0
	for i, tr := range f.traces {
		opts := f.options(tr)
		opts.NoPrePrice = true
		res, err := fleet.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet-replay: reference %g req/s: %v\n", fleetRates[i], err)
			failed++
			continue
		}
		if !reflect.DeepEqual(res.Metrics, f.ref[i]) {
			fmt.Fprintf(os.Stderr, "fleet-replay: %g req/s: metrics differ from the NoPrePrice reference\n", fleetRates[i])
			failed++
		}
	}
	if f.runs > 0 {
		m["fleet.distinct_shapes"] = float64(f.shapes) / float64(f.runs)
		m["fleet.evaluations_per_run"] = float64(f.evals) / float64(f.runs)
		m["fleet.exact_sims_per_run"] = float64(f.sims) / float64(f.runs)
	}
	if busy := lt.self["fleet.run"].Seconds(); busy > 0 {
		m["fleet.steps_per_s"] = float64(f.steps) / busy
	}
	return failed
}
