package main

import (
	"encoding/json"
	"math"
	"sort"
)

// metricDef names one metric. bound is the share of the parent's median
// an end-to-end metric may worsen by before a change counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"record_overhead_x", "x", "lower", 0.20},
	{"report_cpu_s", "s", "lower", 0.25},
	{"report_alloc_mb", "MB", "lower", 0.05},
	{"bundle_bytes_per_event", "B", "lower", 0.05},
	{"ingest_cpu_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p90_ms", "ms", "lower", 0.25},
	{"scrape_p50_ms", "ms", "lower", 0.25},
	{"scrape_p90_ms", "ms", "lower", 0.25},
	{"store_bytes_per_entry", "B", "lower", 0.05},
}

var perLayerDefs = []metricDef{
	{"probe.ns_per_event", "ns", "lower", 0},
	{"probe.recorded", "count", "lower", 0},
	{"probe.masked", "count", "higher", 0},
	{"probe.dropped", "count", "lower", 0},
	{"shmlog.persist_ns_per_entry", "ns", "lower", 0},
	{"shmlog.read_ns_per_entry", "ns", "lower", 0},
	{"shmlog.read_alloc_b_per_entry", "B", "lower", 0},
	{"analyzer.ns_per_entry", "ns", "lower", 0},
	{"analyzer.alloc_b_per_entry", "B", "lower", 0},
	{"analyzer.unmatched", "count", "lower", 0},
	{"analyzer.truncated", "count", "lower", 0},
	{"flamegraph.fold_ns_per_stack", "ns", "lower", 0},
	{"flamegraph.svg_ns_per_stack", "ns", "lower", 0},
	{"flamegraph.stacks", "count", "lower", 0},
	{"profilestore.ingest_ns_per_entry", "ns", "lower", 0},
	{"profilestore.compact_ns_per_entry", "ns", "lower", 0},
	{"profilestore.query_ns_per_entry", "ns", "lower", 0},
	{"profilestore.cache_hit_ratio", "ratio", "higher", 0},
	{"profilestore.tables", "count", "lower", 0},
	{"agent.scrape_ns_per_entry", "ns", "lower", 0},
	{"agent.drained", "count", "lower", 0},
	{"trace.unattributed_ratio", "ratio", "lower", 0},
	{"trace.overhead_x", "x", "lower", 0},
	{"fail_ratio", "ratio", "lower", 0},
}

// maxUnattributed is the tolerance on trace.unattributed_ratio: the share
// of report and ingest CPU time outside every layer span.
const maxUnattributed = 0.05

// endToEnd computes the end-to-end metrics of a plain run.
func endToEnd(r *results) map[string]metric {
	v := map[string]float64{
		"setup_s":                median(r.setup),
		"record_overhead_x":      median(r.overhead),
		"report_cpu_s":           median(r.reportCPU),
		"report_alloc_mb":        median(r.reportAlloc),
		"bundle_bytes_per_event": ratio(float64(r.bundleBytes), float64(r.bundleEvents)),
		"ingest_cpu_s":           median(r.ingestCPU),
		"query_p50_ms":           quantile(r.queryMS, 0.5),
		"query_p90_ms":           quantile(r.queryMS, 0.9),
		"scrape_p50_ms":          quantile(r.scrapeMS, 0.5),
		"scrape_p90_ms":          quantile(r.scrapeMS, 0.9),
		"store_bytes_per_entry":  ratio(float64(r.storeBytes), float64(r.storeEntries)),
	}
	return withUnits(endToEndDefs, v)
}

// perLayer computes the per-layer metrics of a traced run. Counts are per
// instrumented body, per report or per scrape, so they do not depend on
// how many cycles fit in the run.
func perLayer(r *results, tr *tracer) map[string]metric {
	bodies := float64(len(r.overhead))
	entries := float64(r.reportEntries)
	stacks := float64(r.stacks)
	ingested := float64(r.ingestEntries)
	persist, read := tr.get("shmlog.persist"), tr.get("shmlog.read")
	an := tr.get("analyzer")
	v := map[string]float64{
		"probe.ns_per_event":                ratio(r.probeNS, r.probeEvents),
		"probe.recorded":                    ratio(float64(r.recorded), bodies),
		"probe.masked":                      ratio(float64(r.masked), bodies),
		"probe.dropped":                     float64(r.dropped),
		"shmlog.persist_ns_per_entry":       ratio(float64(persist.cpu), entries),
		"shmlog.read_ns_per_entry":          ratio(float64(read.cpu), entries),
		"shmlog.read_alloc_b_per_entry":     ratio(float64(read.alloc), entries),
		"analyzer.ns_per_entry":             ratio(float64(an.cpu), entries),
		"analyzer.alloc_b_per_entry":        ratio(float64(an.alloc), entries),
		"analyzer.unmatched":                float64(r.unmatched),
		"analyzer.truncated":                float64(r.truncated),
		"flamegraph.fold_ns_per_stack":      ratio(float64(tr.get("flamegraph.fold").cpu), stacks),
		"flamegraph.svg_ns_per_stack":       ratio(float64(tr.get("flamegraph.svg").cpu), stacks),
		"flamegraph.stacks":                 ratio(stacks, float64(r.reports)),
		"profilestore.ingest_ns_per_entry":  ratio(float64(tr.get("profilestore.ingest").cpu), ingested),
		"profilestore.compact_ns_per_entry": ratio(float64(tr.get("profilestore.compact").cpu), ingested),
		"profilestore.query_ns_per_entry":   ratio(1e6*sum(r.queryMS), float64(r.queryEntries)),
		"profilestore.cache_hit_ratio":      r.cacheHitRatio,
		"profilestore.tables":               float64(r.tables),
		"agent.scrape_ns_per_entry":         ratio(1e6*sum(r.scrapeMS), float64(r.drained)),
		"agent.drained":                     ratio(float64(r.drained), float64(len(r.scrapeMS))),
		"trace.unattributed_ratio":          unattributed(tr),
		"trace.overhead_x":                  pairedRatio(r.tracedReport, r.plainReport),
		"fail_ratio":                        ratio(float64(r.failed), float64(r.attempted)),
	}
	return withUnits(perLayerDefs, v)
}

// layerSpans are the spans whose CPU time the per-layer metrics report.
var layerSpans = []string{
	"shmlog.persist", "shmlog.read", "analyzer", "flamegraph.fold", "flamegraph.svg",
	"profilestore.ingest", "profilestore.compact",
}

// unattributed is the share of the report and ingest spans' CPU time that
// no per-layer metric reports: the bundle's symbol table and file I/O,
// and whatever else runs between the layer calls.
func unattributed(tr *tracer) float64 {
	total := tr.get("report").cpu + tr.get("ingest").cpu
	covered := int64(0)
	for _, name := range layerSpans {
		covered += tr.get(name).cpu
	}
	return ratio(float64(total-covered), float64(total))
}

// median returns the median of xs (0 for none). xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// pairedRatio is sum(a)/sum(b) over an even number of pairs. The pairs
// alternate which report runs first, and the first one costs more (it
// starts from a smaller live heap, so it collects more often); over an
// even number of pairs the order effect cancels.
func pairedRatio(a, b []float64) float64 {
	n := min(len(a), len(b)) &^ 1
	return ratio(sum(a[:n]), sum(b[:n]))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func withUnits(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x := v[d.Name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[d.Name] = metric{Value: x, Unit: d.Unit}
	}
	return out
}

// describeJSON renders BENCHMARK.json from the definitions above, so the
// file and the program cannot disagree on names, units or bounds.
func describeJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndDefs,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, named{w.name, w.why})
	}
	for _, d := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// runSeconds is the measurement time of one run in BENCHMARK.json.
const runSeconds = 25
