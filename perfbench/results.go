package main

import "fmt"

// results collects one run's samples, counters and check outcomes.
type results struct {
	attempted int // operations: workload runs, reports, ingests, queries, scrapes
	failed    int // operations whose checks failed
	errs      []string

	// warm marks the warm-up cycle: its operations are checked and
	// counted, but its samples are discarded.
	warm bool

	setup       []float64 // s, one per set-up
	overhead    []float64 // x, one per measured pair
	reportCPU   []float64 // s, one per report sample
	reportAlloc []float64 // MB, one per report sample
	ingestCPU   []float64 // s, one per ingest sample
	queryMS     []float64 // CPU ms, one per query
	scrapeMS    []float64 // CPU ms, one per scrape

	bundleBytes, bundleEvents int64
	storeBytes, storeEntries  int64

	// Per-layer counters, filled on every run and reported by the traced one.
	probeNS, probeEvents      float64 // instrumented minus native thread CPU, and probe calls
	recorded, masked          int64
	dropped                   uint64
	reportEntries, stacks     int64
	reports                   int64
	unmatched, truncated      int64
	ingestEntries             int64
	queryEntries, drained     int64
	cycles                    int64
	tables                    int
	cacheHitRatio             float64
	tracedReport, plainReport []float64 // s, paired report CPU with and without spans
}

// op counts one attempted operation and records its check failure, if any.
// It reports whether the operation passed.
func (r *results) op(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, err.Error())
	}
	return false
}

// sample appends v to dst unless this is the warm-up cycle.
func (r *results) sample(dst *[]float64, v float64) {
	if !r.warm {
		*dst = append(*dst, v)
	}
}

// checkf returns an error when ok is false.
func checkf(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}
