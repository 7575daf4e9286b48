package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mcudist/internal/evalpool"
	"mcudist/internal/experiments"
	"mcudist/internal/interconnect"
)

// workload is one benchmark workload. The runner owns timing, garbage
// collection and counter snapshots; a workload owns its inputs, its ops
// and the checks of their outputs.
type workload interface {
	// setup builds fresh inputs and cold state. It is timed.
	setup() error
	// teardown releases what setup made. It is not timed.
	teardown()
	// beforeRep resets per-rep state. It is not timed.
	beforeRep()
	// rep runs one rep and returns the host latency of each op; with
	// rec non-nil it records spans around the calls into each layer.
	rep(rec *recorder) []time.Duration
	// check verifies the outputs of the rep that just ran, untimed, and
	// returns how many of its ops failed (errors included).
	check() int
	// finish runs the checks made once after timing and adds the
	// workload's own metrics; it returns how many ops they failed.
	finish(m metrics, lt layerTimes) int
	// tailPct is the percentile op_tail_ms reports. The workload's
	// timed reps leave at least ten op samples beyond it
	// (TestTimedRepsSupportTail).
	tailPct() float64
}

// runSeconds is the run length BENCHMARK.json declares. The timed reps
// are a fixed count per workload (timedReps), sized so they take about
// this long on the calibration VM.
const runSeconds = 20

// timedReps is each workload's fixed number of timed reps.
var timedReps = map[string]int{
	"sweep-cold":   120, // 30,720 points
	"repro-cold":   50,  // suite passes
	"repro-warm":   50,
	"fleet-replay": 75, // 225 fleet.Run calls
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	// reps is the number of timed reps; the smoke test shrinks it.
	reps int
	// warmup reps follow each set-up and are billed to setup_s; setup_s
	// is the median of setups set-ups.
	warmup, setups int
	trace          bool
	spansPath      string
	dir            string // scratch directory for result stores
	clients        int
	// Workload sizes; the smoke test shrinks them.
	points        int // sweep-cold points per rep
	fillPoints    int // repro-warm: sweep points added to the store
	storePoints   int // repro-*: store Loads or Appends timed per traced pass
	fleetRequests int // fleet-replay: requests per trace
}

// defaultConfig returns the benchmark's settings for a workload.
func defaultConfig(name string, seed uint64) config {
	return config{
		workload:      name,
		seed:          seed,
		reps:          timedReps[name],
		warmup:        2,
		setups:        3,
		clients:       min(2, runtime.NumCPU()),
		points:        256,
		fillPoints:    3600,
		storePoints:   413, // as many as a cold pass appends
		fleetRequests: 100000,
	}
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"sweep-cold", "repro-cold", "repro-warm", "fleet-replay"}

func newWorkload(c *config) (workload, error) {
	switch c.workload {
	case "sweep-cold":
		return &sweepCold{c: c}, nil
	case "repro-cold":
		return &repro{c: c}, nil
	case "repro-warm":
		return &repro{c: c, warm: true}, nil
	case "fleet-replay":
		return &fleetReplay{c: c}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", c.workload)
}

// outcome is one run's result.
type outcome struct {
	attempted, failed int
	m                 metrics
	timedReps         int
	tracedReps        int
	samples           int
	// raw holds the host-time metrics before normalization, and
	// probeMs the run's median probe time.
	raw     metrics
	probeMs float64
}

// snapshot is the set of layer counters read around each timed rep.
type snapshot struct {
	ev        evalpool.Stats
	evals     uint64
	lowerings uint64
	mem       runtime.MemStats
}

func takeSnapshot() snapshot {
	var s snapshot
	s.ev = evalpool.GetStats()
	s.evals = evalpool.Evaluations()
	s.lowerings = interconnect.Lowerings()
	runtime.ReadMemStats(&s.mem)
	return s
}

// run measures one workload: set-ups and warm-up, timed reps, then the
// optional traced reps and the final checks. A probe samples the
// machine's speed throughout, and every host-time metric is reported
// normalized by it (see probe). Progress goes to log.
func run(c *config, log io.Writer) (*outcome, error) {
	w, err := newWorkload(c)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	out := &outcome{m: metrics{}}
	p := &probe{}

	var setups []float64
	for i := 0; i < c.setups; i++ {
		w.teardown()
		p.sample()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		for j := 0; j < c.warmup; j++ {
			w.beforeRep()
			lats := w.rep(nil)
			out.attempted += len(lats)
			out.failed += w.check()
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(log, "setup: %d set-ups of %d warm-up reps, %.3fs median\n", len(setups), c.warmup, median(setups))

	var lats []time.Duration
	var busy time.Duration
	var delta struct {
		memHits, diskHits, sims, evals, lowerings uint64
		alloc, mallocs, pauseNs                   uint64
		gcs                                       uint32
	}
	for rep := 0; rep < c.reps; rep++ {
		w.beforeRep()
		runtime.GC()
		a := takeSnapshot()
		t0 := time.Now()
		l := w.rep(nil)
		busy += time.Since(t0)
		b := takeSnapshot()
		lats = append(lats, l...)
		delta.memHits += b.ev.MemoryHits - a.ev.MemoryHits
		delta.diskHits += b.ev.DiskHits - a.ev.DiskHits
		delta.sims += b.ev.Simulations - a.ev.Simulations
		delta.evals += b.evals - a.evals
		delta.lowerings += b.lowerings - a.lowerings
		delta.alloc += b.mem.TotalAlloc - a.mem.TotalAlloc
		delta.mallocs += b.mem.Mallocs - a.mem.Mallocs
		delta.pauseNs += b.mem.PauseTotalNs - a.mem.PauseTotalNs
		delta.gcs += b.mem.NumGC - a.mem.NumGC
		out.attempted += len(l)
		out.failed += w.check()
		out.timedReps++
		p.maybe()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	ops := float64(len(lats))
	out.samples = len(lats)
	ms := millis(lats)
	m := out.m
	m["setup_s"] = median(setups)
	m["op_p50_ms"] = median(ms)
	m["op_tail_ms"] = percentile(ms, w.tailPct())
	m["ops_per_s"] = ops / busy.Seconds()
	m["alloc_mb_per_op"] = float64(delta.alloc) / ops / 1e6
	m["max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	requests := float64(delta.memHits + delta.evals)
	m["evalpool.requests_per_op"] = requests / ops
	m["evalpool.memory_hits_per_op"] = float64(delta.memHits) / ops
	m["evalpool.disk_hits_per_op"] = float64(delta.diskHits) / ops
	m["evalpool.sims_per_op"] = float64(delta.sims) / ops
	if requests > 0 {
		m["evalpool.hit_ratio"] = float64(delta.memHits+delta.diskHits) / requests
	}
	m["interconnect.lowerings_per_op"] = float64(delta.lowerings) / ops
	m["runtime.gc_cycles_per_op"] = float64(delta.gcs) / ops
	m["runtime.gc_pause_ms_per_op"] = float64(delta.pauseNs) / 1e6 / ops
	m["runtime.mallocs_per_op"] = float64(delta.mallocs) / ops
	q1, q3 := quartiles(ms)
	fmt.Fprintf(log, "timed: %d reps, %d ops, %.3fs busy; raw op quartiles %.4g..%.4g ms; op_tail_ms is p%g (p%g is the highest with at least 10 of the ops beyond it)\n",
		out.timedReps, len(lats), busy.Seconds(), q1, q3, w.tailPct(), supportedTail(len(lats)))

	var lt layerTimes
	if c.trace {
		rec := newRecorder()
		out.tracedReps = max(1, out.timedReps/4)
		var traced []time.Duration
		for i := 0; i < out.tracedReps; i++ {
			w.beforeRep()
			runtime.GC()
			l := w.rep(rec)
			traced = append(traced, l...)
			out.attempted += len(l)
			out.failed += w.check()
			p.maybe()
		}
		lt = rec.summarize()
		tracedLayers(m, lt, len(traced))
		m["bench.trace_overhead"] = median(millis(traced)) / m["op_p50_ms"]
		if c.spansPath != "" {
			if err := rec.writeChrome(c.spansPath); err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "trace: %d reps, %d spans written to %s\n", out.tracedReps, len(rec.spans), c.spansPath)
		}
	}
	out.failed += w.finish(m, lt)

	h, err := experiments.RunHeadline()
	if err != nil {
		return nil, fmt.Errorf("headline: %w", err)
	}
	m["paper_log_err"] = paperLogErr(h)

	p.sample()
	out.probeMs = median(p.samples)
	out.raw = normalize(m, p.scale())
	return out, nil
}

// normalize converts every host-time metric of m to the calibration
// machine's speed — times multiplied by scale, rates divided — and
// returns the raw values it replaced.
func normalize(m metrics, scale float64) metrics {
	raw := metrics{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := m[d.name]
			if !ok {
				continue
			}
			switch {
			case d.unit == "s" || d.unit == "ms" || d.unit == "us":
				m[d.name] = v * scale
			case strings.HasSuffix(d.unit, "/s"):
				m[d.name] = v / scale
			default:
				continue
			}
			raw[d.name] = v
		}
	}
	return raw
}

// tracedLayers derives the span-timed layer metrics shared by every
// workload; a layer with no spans reads 0.
func tracedLayers(m metrics, lt layerTimes, ops int) {
	per := func(name string) float64 {
		if ops == 0 {
			return 0
		}
		return lt.self[name].Seconds() * 1e3 / float64(ops)
	}
	count := func(name string) float64 {
		if ops == 0 {
			return 0
		}
		return float64(len(lt.durs[name])) / float64(ops)
	}
	us := func(name string, p float64) float64 { return percentile(millis(lt.durs[name]), p) * 1e3 }
	ms := func(name string) float64 { return percentile(millis(lt.durs[name]), 50) }

	m["deploy.lower_calls_per_op"] = count("deploy")
	m["deploy.lower_us_p50"] = us("deploy", 50)
	m["deploy.busy_ms_per_op"] = per("deploy")
	m["interconnect.lower_ms_p50"] = ms("interconnect.lower")
	m["interconnect.busy_ms_per_op"] = per("interconnect.lower") + per("interconnect.hit")
	if n := len(lt.durs["interconnect.lower"]) + len(lt.durs["interconnect.hit"]); n > 0 {
		m["interconnect.intern_hit_ratio"] = float64(len(lt.durs["interconnect.hit"])) / float64(n)
	}
	m["perfsim.runs_per_op"] = count("perfsim")
	m["perfsim.run_us_p50"] = us("perfsim", 50)
	m["perfsim.run_us_p99"] = us("perfsim", 99)
	m["perfsim.busy_ms_per_op"] = per("perfsim")
	m["energy.calls_per_op"] = count("energy")
	m["energy.busy_ms_per_op"] = per("energy")
	m["resultstore.open_ms"] = ms("resultstore.open")
	m["resultstore.load_us_p50"] = us("resultstore.load", 50)
	m["resultstore.load_us_p99"] = us("resultstore.load", 99)
	m["resultstore.append_us_p50"] = us("resultstore.append", 50)
	m["resultstore.busy_ms_per_op"] = per("resultstore.open")
	for _, s := range suiteSteps {
		m["experiments."+s.name+"_ms"] = ms("step." + s.name)
	}
	m["fleet.run_ms_p50"] = ms("fleet.run")
	m["fleet.trace_gen_ms"] = ms("fleet.trace")
}
