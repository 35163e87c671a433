package main

import (
	"runtime"
	"runtime/metrics"
)

// stamp is a point on the process's CPU clock and allocation counter.
type stamp struct {
	cpu   int64
	alloc uint64
}

// now reads MemStats.TotalAlloc, which is exact but stops the world.
func now() stamp {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return stamp{cpu: processCPU(), alloc: ms.TotalAlloc}
}

// spanNow reads the allocation counter through runtime/metrics instead:
// spans nest, so their boundaries must cost next to nothing, and the
// per-CPU allocation caches it does not flush hold a few kilobytes at most.
func spanNow() stamp {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return stamp{cpu: processCPU(), alloc: s[0].Value.Uint64()}
}

// cost is what the process spent between two stamps.
type cost struct {
	cpu   int64  // CPU nanoseconds
	alloc uint64 // bytes allocated
}

func since(s stamp) cost { return between(s, now()) }

func between(s, e stamp) cost { return cost{cpu: e.cpu - s.cpu, alloc: e.alloc - s.alloc} }

// A tracer records spans around the benchmark's calls into each layer's
// public functions. The layer spans are leaves inside a report or an ingest
// span, so a layer's CPU time is its self time. A nil tracer records
// nothing, so the untraced path pays one nil check per span.
type tracer struct {
	spans map[string]*spanTotal
}

// spanTotal accumulates every finished span of one name.
type spanTotal struct {
	cpu   int64 // CPU nanoseconds
	alloc uint64
}

func newTracer() *tracer { return &tracer{spans: make(map[string]*spanTotal)} }

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := spanNow()
	return func() {
		c := between(start, spanNow())
		tot := t.spans[name]
		if tot == nil {
			tot = &spanTotal{}
			t.spans[name] = tot
		}
		tot.cpu += c.cpu
		tot.alloc += c.alloc
	}
}

// get returns the totals of a span name (zero when never opened).
func (t *tracer) get(name string) spanTotal {
	if t == nil || t.spans[name] == nil {
		return spanTotal{}
	}
	return *t.spans[name]
}
