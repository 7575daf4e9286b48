// Command mcubench is the repository's benchmark: it times the
// simulation stack end to end on one workload per process, checks every
// output it times, and with -trace 1 reruns a quarter of the reps with
// spans around each layer call to attribute host time per layer.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -workload sweep-cold -seed 1
//	bash bench/run.sh -workload repro-warm -seed 1 -trace 1 -spans spans.json
//	bash bench/run.sh -workload fleet-replay -seed 1 -json rec.json
//	bash bench/run.sh -check a.json b.json
//
// Every metric prints as "name value unit"; the last line of standard
// output is one JSON object with the run's verdict and its end-to-end
// metrics (-trace 0) or per-layer metrics (-trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"

	"mcudist/internal/evalpool"
)

func main() {
	workload := flag.String("workload", "", "workload to run: sweep-cold, repro-cold, repro-warm or fleet-replay")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", runSeconds, "BENCHMARK.json's run_seconds; any other value is refused, since each workload's rep count is fixed")
	traceMode := flag.Int("trace", 0, "1 reruns a quarter of the reps traced and reports the per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write the spans here as Chrome trace-event JSON (default <workdir>/spans-<workload>.json)")
	jsonPath := flag.String("json", "", "merge this run's metrics and metadata into this JSON record")
	check := flag.Bool("check", false, "compare two -json records (the arguments) against the bounds in BENCHMARK.json")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for the run's result stores and spans")
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			fatalUsage("-check takes two record files")
		}
		ok, err := checkRecords(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcubench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*traceMode != 0 && *traceMode != 1) {
		fatalUsage("bad arguments")
	}
	if *seconds != runSeconds {
		fatalUsage(fmt.Sprintf("-seconds %d: the run length is fixed at %d s by each workload's rep count", *seconds, runSeconds))
	}

	if !slices.Contains(workloadNames, *workload) {
		fatalUsage(fmt.Sprintf("unknown workload %q (want one of %v)", *workload, workloadNames))
	}
	c := defaultConfig(*workload, *seed)
	c.trace = *traceMode == 1
	if err := os.MkdirAll(*workdir, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "mcubench:", err)
		os.Exit(1)
	}
	if c.trace {
		c.spansPath = *spans
		if c.spansPath == "" {
			c.spansPath = filepath.Join(*workdir, "spans-"+c.workload+".json")
		}
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcubench:", err)
		os.Exit(1)
	}
	c.dir = dir
	res, err := measure(&c, os.Stdout, os.Stderr)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcubench:", err)
		os.Exit(1)
	}
	if *jsonPath != "" {
		if err := mergeRecord(*jsonPath, &c, res); err != nil {
			fmt.Fprintln(os.Stderr, "mcubench:", err)
			os.Exit(1)
		}
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, res.m.pick(defs)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcubench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measure pins the concurrency — GOMAXPROCS at nproc, the evaluation
// pool and the client count at min(2, nproc) — runs the workload and
// prints every metric to out: the end-to-end ones, the per-layer ones
// (all of them when traced), the raw host times before normalization
// and the failed share of ops.
func measure(c *config, out, log io.Writer) (*outcome, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	evalpool.SetWorkers(c.clients)
	res, err := run(c, log)
	if err != nil {
		return nil, err
	}
	res.m.print(out, "", endToEnd, true)
	res.m.print(out, "", perLayer, c.trace)
	res.raw.print(out, "raw.", endToEnd, false)
	fmt.Fprintf(out, "bench.probe_ms %s ms\n", strconv.FormatFloat(res.probeMs, 'g', -1, 64))
	fmt.Fprintf(out, "failed_ratio %g ratio\n", float64(res.failed)/float64(res.attempted))
	return res, nil
}

func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "mcubench:", msg)
	flag.Usage()
	os.Exit(2)
}
