// Command benchjson converts `go test -bench` text output into a small,
// stable JSON perf-trajectory file, and validates such files in CI.
//
// Emit (reads bench output on stdin):
//
//	go test -run='^$' -bench=... ./... | go run ./scripts/benchjson > BENCH_agent.json
//
// Check (parses the file and requires every listed benchmark to appear):
//
//	go run ./scripts/benchjson -check BENCH_agent.json BenchmarkAppendParallel ...
//
// Gate (fails when a metric regresses past the threshold vs a baseline):
//
//	go run ./scripts/benchjson -gate -metric ratio -max-regress 50 -slack 1.0 \
//	    BENCH_overhead.json current.json
//
// Repeated result lines with one name — a sweep run several times, or
// -count>1 — become one row holding each metric's median.
//
// Meta (prints the recorded host parallelism of a trajectory file):
//
//	go run ./scripts/benchjson -meta BENCH_overhead.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark output line. Name keeps the full sub-benchmark
// path and the -GOMAXPROCS suffix exactly as `go test` printed it; Metrics
// holds every reported "value unit" pair (ns/op, B/op, allocs/op, and any
// b.ReportMetric extras such as entries/op).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// File is the committed trajectory document. NumCPU and Gomaxprocs pin the
// parallelism the numbers were measured under — a BenchmarkAppendParallel
// figure from a 64-way box is not comparable to one from a 1-CPU runner,
// and without these fields the files silently invited that comparison.
type File struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	Gomaxprocs int      `json:"gomaxprocs,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	check := flag.Bool("check", false, "validate: args are <file> <required bench name>...")
	gate := flag.Bool("gate", false, "threshold gate: args are <baseline file> <current file>")
	meta := flag.Bool("meta", false, "print num_cpu/gomaxprocs of <file> and exit")
	metric := flag.String("metric", "ratio", "metric to gate on (with -gate)")
	maxRegress := flag.Float64("max-regress", 50, "max allowed regression in percent (with -gate)")
	slack := flag.Float64("slack", 1.0, "absolute metric slack also required before failing (with -gate)")
	prefix := flag.String("prefix", "", "only gate benchmarks whose name starts with this (with -gate)")
	numCPU := flag.Int("numcpu", runtime.NumCPU(), "CPUs of the measuring host (recorded in the file)")
	maxprocs := flag.Int("gomaxprocs", runtime.GOMAXPROCS(0), "GOMAXPROCS the benchmarks ran under")
	flag.Parse()
	if *check {
		if flag.NArg() < 2 {
			fatalf("usage: benchjson -check <file> <BenchmarkName>...")
		}
		if err := checkFile(flag.Arg(0), flag.Args()[1:]); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("benchjson: %s names all %d required benchmarks\n", flag.Arg(0), flag.NArg()-1)
		return
	}
	if *meta {
		if flag.NArg() != 1 {
			fatalf("usage: benchjson -meta <file>")
		}
		f, err := loadFile(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("num_cpu=%d\ngomaxprocs=%d\n", f.NumCPU, f.Gomaxprocs)
		return
	}
	if *gate {
		if flag.NArg() != 2 {
			fatalf("usage: benchjson -gate [-metric m] [-max-regress pct] [-slack s] [-prefix p] <baseline> <current>")
		}
		if err := gateFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *metric, *maxRegress, *slack, *prefix); err != nil {
			fatalf("%v", err)
		}
		return
	}
	f, err := parseBenchOutput(os.Stdin)
	if err != nil {
		fatalf("%v", err)
	}
	if len(f.Benchmarks) == 0 {
		fatalf("no benchmark result lines on stdin")
	}
	f.NumCPU = *numCPU
	f.Gomaxprocs = *maxprocs
	if f.Goos == "" {
		f.Goos = runtime.GOOS
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}

func parseBenchOutput(r io.Reader) (*File, error) {
	f := &File{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: ") && f.Goos == "":
			f.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: ") && f.Goarch == "":
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: ") && f.CPU == "":
			f.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "Name iterations value unit [value unit ...]";
		// a bare "BenchmarkFoo" announcement before sub-benchmarks is not.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value in %q: %v", line, err)
			}
			res.Metrics[fields[i+1]] = v
		}
		f.Benchmarks = append(f.Benchmarks, res)
	}
	f.Benchmarks = foldRepeats(f.Benchmarks)
	return f, sc.Err()
}

// foldRepeats merges results that share a name into one row, in
// first-seen order: each metric becomes its median over the repeats that
// report it, and the iteration count the median count.
func foldRepeats(rs []Result) []Result {
	byName := make(map[string][]Result, len(rs))
	var order []string
	for _, r := range rs {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		var iters []float64
		samples := map[string][]float64{}
		for _, r := range byName[name] {
			iters = append(iters, float64(r.Iterations))
			for unit, v := range r.Metrics {
				samples[unit] = append(samples[unit], v)
			}
		}
		merged := Result{Name: name, Iterations: int64(median(iters)), Metrics: map[string]float64{}}
		for unit, vs := range samples {
			merged.Metrics[unit] = median(vs)
		}
		out = append(out, merged)
	}
	return out
}

// median returns the middle of vs, or the mean of the two middle values
// for an even count. It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// loadFile parses one committed trajectory document.
func loadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s does not parse: %v", path, err)
	}
	return &f, nil
}

func checkFile(path string, required []string) error {
	f, err := loadFile(path)
	if err != nil {
		return err
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("%s has no benchmarks", path)
	}
	for _, want := range required {
		found := false
		for _, r := range f.Benchmarks {
			// Match the benchmark base name: exact, a sub-benchmark
			// ("Name/sub"), or with the -GOMAXPROCS suffix ("Name-8").
			rest, ok := strings.CutPrefix(r.Name, want)
			if ok && (rest == "" || rest[0] == '/' || rest[0] == '-') {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%s missing results for %s", path, want)
		}
	}
	return nil
}

// gateFiles is the perf-trajectory threshold gate: every benchmark of
// current that carries the metric (and matches prefix) is compared against
// the same-named row of baseline. A row fails only when it exceeds BOTH
// bounds — baseline*(1+maxRegressPct/100) and baseline+slack — so
// near-1.0 ratio rows are protected from absolute noise and large-ratio
// rows from relative noise. Rows present on one side only are skipped
// with a note (machines with different CPU counts legitimately measure
// different shard grids). Improvements always pass. Comparing zero rows
// is itself a failure: a gate that silently matches nothing has been
// unhooked by a rename.
func gateFiles(w io.Writer, basePath, curPath, metric string, maxRegressPct, slack float64, prefix string) error {
	base, err := loadFile(basePath)
	if err != nil {
		return err
	}
	cur, err := loadFile(curPath)
	if err != nil {
		return err
	}
	baseBy := make(map[string]float64, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		if v, ok := r.Metrics[metric]; ok {
			baseBy[r.Name] = v
		}
	}
	var (
		compared, skipped int
		failures          []string
		worstPct          float64
		worstName         string
	)
	for _, r := range cur.Benchmarks {
		if prefix != "" && !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		c, ok := r.Metrics[metric]
		if !ok {
			continue
		}
		b, ok := baseBy[r.Name]
		if !ok {
			skipped++
			fmt.Fprintf(w, "benchjson gate: note: %s not in baseline %s, skipped\n", r.Name, basePath)
			continue
		}
		compared++
		pct := 0.0
		if b != 0 {
			pct = (c - b) / b * 100
		}
		if pct > worstPct {
			worstPct, worstName = pct, r.Name
		}
		if c > b*(1+maxRegressPct/100) && c > b+slack {
			failures = append(failures, fmt.Sprintf(
				"%s %s %.4f -> %.4f (%+.1f%%, limit +%.0f%% and +%.2f absolute)",
				r.Name, metric, b, c, pct, maxRegressPct, slack))
		}
	}
	if compared == 0 {
		return fmt.Errorf("gate compared no %s rows between %s and %s — the sweep and the baseline no longer overlap", metric, basePath, curPath)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchjson gate: FAIL %s\n", f)
		}
		return fmt.Errorf("%d of %d %s rows regressed past the threshold (first: %s)",
			len(failures), compared, metric, failures[0])
	}
	fmt.Fprintf(w, "benchjson gate: %d %s rows within +%.0f%% of %s (worst %+.1f%%",
		compared, metric, maxRegressPct, basePath, worstPct)
	if worstName != "" {
		fmt.Fprintf(w, " at %s", worstName)
	}
	fmt.Fprintf(w, "; %d skipped)\n", skipped)
	return nil
}
