package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
)

// record is the machine-readable result of one or more runs, one entry
// per workload; a run merges its entry into an existing file.
type record struct {
	Meta      recordMeta             `json:"meta"`
	Workloads map[string]workloadRun `json:"workloads"`
}

type recordMeta struct {
	Go          string `json:"go"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	VCSRevision string `json:"vcs_revision"`
	VCSModified string `json:"vcs_modified"`
}

type workloadRun struct {
	Seed       uint64           `json:"seed"`
	Setups     int              `json:"setups"`
	WarmupReps int              `json:"warmup_reps"`
	TimedReps  int              `json:"timed_reps"`
	TracedReps int              `json:"traced_reps"`
	OpSamples  int              `json:"op_samples"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// mergeRecord adds this run's workload entry to the record at path,
// creating the file if needed.
func mergeRecord(path string, c *config, res *outcome) error {
	r, err := readRecord(path)
	if errors.Is(err, fs.ErrNotExist) {
		r, err = &record{}, nil
	}
	if err != nil {
		return err
	}
	r.Meta = recordMeta{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r.Meta.VCSRevision = s.Value
			case "vcs.modified":
				r.Meta.VCSModified = s.Value
			}
		}
	}
	if r.Workloads == nil {
		r.Workloads = map[string]workloadRun{}
	}
	ms := map[string]value{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := res.m[d.name]; ok {
				ms[d.name] = value{v, d.unit}
			}
		}
	}
	r.Workloads[c.workload] = workloadRun{
		Seed: c.seed, Setups: c.setups, WarmupReps: c.warmup,
		TimedReps: res.timedReps, TracedReps: res.tracedReps, OpSamples: res.samples,
		Attempted: res.attempted, Failed: res.failed, Metrics: ms,
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o666)
}

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worsening is how much worse b is than a, as a share of a: positive
// when b is worse in the metric's better direction.
func worsening(a, b float64, better string) float64 {
	if a == b {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// checkRecords reports, for every end-to-end metric and workload in
// both records, whether b stays within the metric's bound of a. It
// returns false if any pair is outside.
func checkRecords(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var def struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readRecord(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecord(bPath)
	if err != nil {
		return false, err
	}
	ok, pairs := true, 0
	fmt.Fprintf(w, "%-16s %-13s %14s %14s %9s %7s  %s\n", "metric", "workload", "a", "b", "worse_by", "bound", "verdict")
	for _, d := range def.EndToEnd {
		for _, wl := range workloadNames {
			va, oka := a.Workloads[wl].Metrics[d.Name]
			vb, okb := b.Workloads[wl].Metrics[d.Name]
			if !oka || !okb {
				continue
			}
			pairs++
			by := worsening(va.Value, vb.Value, d.Better)
			verdict := "within"
			if by > d.Bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(w, "%-16s %-13s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n",
				d.Name, wl, va.Value, vb.Value, 100*by, 100*d.Bound, verdict)
		}
	}
	if pairs == 0 {
		return false, fmt.Errorf("no (metric, workload) pair is in both %s and %s", aPath, bPath)
	}
	return ok, nil
}
