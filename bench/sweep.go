package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mcudist/internal/collective"
	"mcudist/internal/core"
	"mcudist/internal/energy"
	"mcudist/internal/evalpool"
	"mcudist/internal/hw"
	"mcudist/internal/interconnect"
	"mcudist/internal/perfsim"
)

// outputs are the numbers a point's correctness is judged by; every
// path that prices a point must reproduce them bit for bit.
type outputs struct{ cycles, seconds, joules float64 }

// sweepCold is the pure exact-simulation workload: closed loop, each
// client evaluates the next of the seeded points through evalpool.Run
// on a memo and schedule cache emptied before every rep, so a rep costs
// what a fresh cmd/sweep process costs and no input shares work.
type sweepCold struct {
	c      *config
	points []evalpool.Point
	lats   []time.Duration
	got    []outputs
	errs   []error
	// ref holds the first rep's outputs, which every later rep (and the
	// serial recomputation after timing) must equal.
	ref    []outputs
	opBase int
	// traced rep state: the turn at the schedule cache, and the
	// simulated cycles the traced perfsim runs covered.
	traced       bool
	schedMu      sync.Mutex
	tracedCycles float64
}

func (s *sweepCold) tailPct() float64 { return 90 }

func (s *sweepCold) setup() error {
	evalpool.ResetCache()
	interconnect.ResetScheduleCache()
	s.points = sweepPoints(s.c.seed, s.c.points)
	n := len(s.points)
	s.lats = make([]time.Duration, n)
	s.got = make([]outputs, n)
	s.errs = make([]error, n)
	s.ref = nil
	return nil
}

func (s *sweepCold) teardown() {}

func (s *sweepCold) beforeRep() {
	evalpool.ResetCache()
	interconnect.ResetScheduleCache()
	clear(s.errs)
}

func (s *sweepCold) rep(rec *recorder) []time.Duration {
	s.traced = rec != nil
	var next atomic.Int64
	var wg sync.WaitGroup
	for tid := 0; tid < s.c.clients; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.points) {
					return
				}
				pt := s.points[i]
				t0 := time.Now()
				if rec == nil {
					rep, err := evalpool.Run(pt.System, pt.Workload)
					s.lats[i] = time.Since(t0)
					if s.errs[i] = err; err == nil {
						s.got[i] = outputs{rep.Cycles, rep.Seconds, rep.Energy.Total()}
					}
				} else {
					s.got[i], s.errs[i] = s.tracedPoint(rec, s.opBase+i, tid, pt)
					s.lats[i] = time.Since(t0)
				}
			}
		}()
	}
	wg.Wait()
	s.opBase += len(s.points)
	return s.lats
}

func (s *sweepCold) check() int {
	failed := 0
	first := s.ref == nil
	if first {
		s.ref = make([]outputs, len(s.got))
		copy(s.ref, s.got)
	}
	for i, err := range s.errs {
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "sweep-cold: point %d: %v\n", i, err)
			failed++
		case !first && s.got[i] != s.ref[i]:
			fmt.Fprintf(os.Stderr, "sweep-cold: point %d: %+v, earlier rep gave %+v\n", i, s.got[i], s.ref[i])
			failed++
		}
		if s.traced && err == nil {
			s.tracedCycles += s.got[i].cycles
		}
	}
	return failed
}

// finish recomputes every point once with the serial core.Run and
// requires bit-equal outputs.
func (s *sweepCold) finish(m metrics, lt layerTimes) int {
	failed := 0
	for i, pt := range s.points {
		rep, err := core.Run(pt.System, pt.Workload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sweep-cold: serial point %d: %v\n", i, err)
			failed++
			continue
		}
		if want := (outputs{rep.Cycles, rep.Seconds, rep.Energy.Total()}); s.ref[i] != want {
			fmt.Fprintf(os.Stderr, "sweep-cold: point %d: pooled %+v, serial core.Run %+v\n", i, s.ref[i], want)
			failed++
		}
	}
	if busy := lt.self["perfsim"].Seconds(); busy > 0 {
		m["perfsim.sim_cycles_per_s"] = s.tracedCycles / busy
	}
	return failed
}

// tracedPoint prices one point through the same sequence core.Run
// performs — deploy lowering, schedule lowering for the run topology
// and every topology the sync plan binds, the event simulation, the
// energy model — with a span around each layer.
func (s *sweepCold) tracedPoint(rec *recorder, op, tid int, pt evalpool.Point) (outputs, error) {
	root := rec.begin("point", -1, op, tid)
	defer rec.end(root)

	sp := rec.begin("deploy", root, op, tid)
	d, err := core.Lower(pt.System, pt.Workload)
	rec.end(sp)
	if err != nil {
		return outputs{}, err
	}

	n := d.Plan.Chips
	topos := []hw.Topology{d.HW.Topology}
	for _, cl := range collective.ActiveClasses(d.Plan.Strategy, d.Mode) {
		if t := d.Options.SyncPlan.Topology(cl, d.HW.Topology); !slices.Contains(topos, t) {
			topos = append(topos, t)
		}
	}
	for _, t := range topos {
		hp := d.HW
		hp.Topology = t
		if err := s.tracedSchedule(rec, root, op, tid, hp, n); err != nil {
			return outputs{}, err
		}
	}

	sp = rec.begin("perfsim", root, op, tid)
	res, err := perfsim.Run(d)
	rec.end(sp)
	if err != nil {
		return outputs{}, err
	}

	sp = rec.begin("energy", root, op, tid)
	e := energy.FromResult(pt.System.HW, res)
	_ = energy.C2CByClass(pt.System.HW, res)
	rec.end(sp)
	return outputs{res.TotalCycles, pt.System.HW.CyclesToSeconds(res.TotalCycles), e.Total()}, nil
}

// tracedSchedule times one interconnect.CachedSchedule call and labels
// it a cold lowering or an intern hit by whether interconnect.Lowerings()
// moved across it. The traced clients take turns at the call, so the
// counter moves only for the call under the span.
func (s *sweepCold) tracedSchedule(rec *recorder, root, op, tid int, hp hw.Params, n int) error {
	s.schedMu.Lock()
	defer s.schedMu.Unlock()
	before := interconnect.Lowerings()
	sp := rec.begin("interconnect.schedule", root, op, tid)
	_, err := interconnect.CachedSchedule(hp, n)
	name := "interconnect.hit"
	if interconnect.Lowerings() != before {
		name = "interconnect.lower"
	}
	rec.endAs(sp, name)
	return err
}
