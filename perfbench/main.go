// Command perfbench is teeperf's end-to-end benchmark. Each workload runs
// a full user session: generate a workload from a seed, record it with the
// Virtual counter beside native runs, persist the bundle, build the
// offline report (read, analyze, fold, SVG), ingest the segments into a
// history store with inline compaction, run windowed queries, and scrape
// live shared-memory sessions with the fleet agent. Every output is
// checked. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// per-layer ones, from spans around each layer's public calls. Run it
// from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload storm --seed 1 --seconds 20 --trace 0
//
// NOTES.md explains the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// faults are deliberate defects the self-tests inject to prove the checks
// fire.
type faults struct {
	corruptBundle   bool // flip bytes in every persisted log section
	perturbChecksum bool // report a wrong instrumented checksum
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	dir      string // scratch directory, removed at exit
	tiny     bool   // self-test sizes
	// minSamples is the fewest query and scrape samples a run takes, so
	// at least a tenth of them lie beyond the reported 90th percentile.
	minSamples int
	faults     faults
}

// A bench is one workload's session state after set-up.
type bench interface {
	runCycle(r *results, tr *tracer) error
	finish(r *results) error
	close()
}

type workloadDef struct {
	name, why string
	setup     func(dir string, seed uint64, tiny bool, fl faults) (bench, error)
}

var workloads = []workloadDef{
	{"storm", "one-instruction bodies: probe pair, slot reserve and a 1M-entry, two-stack report dominate",
		func(dir string, seed uint64, tiny bool, fl faults) (bench, error) {
			return newSolo(dir, stormSpec(seed, tiny), seed, fl)
		}},
	{"calltree", "tens of thousands of deep stacks in 8 shards sampled 1-in-8: fold, SVG and shard merge dominate",
		func(dir string, seed uint64, tiny bool, fl faults) (bench, error) {
			return newSolo(dir, calltreeSpec(seed, tiny), seed, fl)
		}},
	{"fleet", "16 shared-memory sessions in bursts: agent scrape, many-segment ingest, compaction and queries dominate",
		func(dir string, seed uint64, tiny bool, fl faults) (bench, error) {
			return newFleet(dir, newFleetSpec(tiny), seed, fl)
		}},
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// maxOvertime is how long a run may go on past its measurement time to
// collect the samples it still lacks.
const maxOvertime = 60 * time.Second

func main() {
	var (
		cfg      config
		trace    int
		describe bool
		root     string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: storm, calltree or fleet")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs with spans and reports the per-layer metrics")
	flag.StringVar(&root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.BoolVar(&describe, "describe", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if describe {
		os.Stdout.Write(describeJSON())
		return
	}
	cfg.trace = trace == 1
	cfg.minSamples = 100
	cfg.dir = filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o output) String() string {
	b, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// run sets the workload up setupRepeats times, runs one warm-up cycle and
// then measured cycles for cfg.seconds, and returns the result line.
func run(cfg config) (output, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return output{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Time the workload on one OS thread: thread CPU time then measures
	// exactly the goroutine that drives the probes.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer os.RemoveAll(cfg.dir)

	r := &results{}
	var b bench
	for i := 0; i < setupRepeats; i++ {
		// Drop the previous set-up before collecting, so every set-up
		// starts from the same heap.
		if b != nil {
			b.close()
			b = nil
		}
		runtime.GC()
		start := now()
		var err error
		b, err = def.setup(filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)), cfg.seed, cfg.tiny, cfg.faults)
		if err != nil {
			return output{}, fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, float64(since(start).cpu)/1e9)
	}
	defer b.close()

	r.warm = true
	if err := b.runCycle(r, newTracerIf(cfg.trace)); err != nil {
		return output{}, fmt.Errorf("warm-up cycle: %w", err)
	}
	r.warm = false
	tr := newTracerIf(cfg.trace)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	// A failed check ends the run: its cycles may skip the queries and
	// scrapes the sample count waits for.
	for r.failed == 0 && (r.cycles < 3 || time.Now().Before(deadline) ||
		len(r.queryMS) < cfg.minSamples || len(r.scrapeMS) < cfg.minSamples) {
		if time.Now().After(deadline.Add(maxOvertime)) {
			r.op(fmt.Errorf("%d query and %d scrape samples by the time limit, want %d each",
				len(r.queryMS), len(r.scrapeMS), cfg.minSamples))
			break
		}
		if err := b.runCycle(r, tr); err != nil {
			return output{}, fmt.Errorf("cycle %d: %w", r.cycles+1, err)
		}
		r.cycles++
	}
	if err := b.finish(r); err != nil {
		return output{}, err
	}
	// At self-test sizes the bundle's fixed file and symbol-table costs
	// outweigh the layers, so the ledger is held to its tolerance only at
	// full size.
	if tr != nil && !cfg.tiny {
		r.op(checkf(unattributed(tr) <= maxUnattributed,
			"trace leaves %.1f%% of report and ingest CPU unattributed (tolerance %.0f%%)",
			100*unattributed(tr), 100*maxUnattributed))
	}
	summarize(r)

	out := output{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if cfg.trace {
		out.Metrics = perLayer(r, tr)
	} else {
		out.Metrics = endToEnd(r)
	}
	return out, nil
}

func newTracerIf(on bool) *tracer {
	if on {
		return newTracer()
	}
	return nil
}

// summarize prints sample counts and failures on standard error.
func summarize(r *results) {
	fmt.Fprintf(os.Stderr, "perfbench: %d cycles, %d setups, %d pairs, %d reports, %d ingests, %d queries, %d scrapes; %d/%d operations failed\n",
		r.cycles, len(r.setup), len(r.overhead), len(r.reportCPU), len(r.ingestCPU), len(r.queryMS), len(r.scrapeMS), r.failed, r.attempted)
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
}
