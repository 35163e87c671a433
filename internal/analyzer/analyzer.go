// Package analyzer implements TEE-Perf's stage 3: the offline component
// that dissects a recorded log. It groups entries per thread, rebuilds each
// thread's call stack from the call/return stream, computes inclusive and
// exclusive (self) tick counts per method, resolves addresses through the
// symbol table (using the profiler-anchor relocation offset stored in the
// log header), and produces the folded call stacks the visualizer consumes.
package analyzer

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"teeperf/internal/runmerge"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// Record is one completed (or force-closed) function execution.
type Record struct {
	// Thread is the log thread ID.
	Thread uint64
	// Name is the resolved, demangled function name.
	Name string
	// Addr is the runtime address recorded by the probe.
	Addr uint64
	// Caller is the resolved name of the parent frame ("" for roots).
	Caller string
	// Depth is the stack depth (0 for roots).
	Depth int
	// Start and End are the counter values at entry and exit (always raw,
	// even in sampled logs).
	Start, End uint64
	// Incl is End-Start; Self is Incl minus the inclusive time of
	// children (never negative). In a sampled log (header sampling period
	// N > 1) both are scaled by N, so totals estimate the full profile.
	Incl, Self uint64
	// Truncated marks frames force-closed at the end of the log.
	Truncated bool
}

// FuncStat aggregates all executions of one function.
type FuncStat struct {
	// Name is the resolved, demangled function name.
	Name string
	// Addr is the runtime address recorded by the probes.
	Addr uint64
	// Calls is the number of recorded executions.
	Calls uint64
	// Incl and Self are total inclusive and exclusive ticks.
	Incl, Self uint64
	// Callers and Callees count invocation edges by resolved name.
	Callers map[string]uint64
	Callees map[string]uint64
}

// ThreadStat summarizes one thread.
type ThreadStat struct {
	// ID is the log thread ID.
	ID uint64
	// Events is the number of log entries attributed to the thread.
	Events int
	// Calls is the number of completed executions.
	Calls uint64
	// Ticks is the total root-level inclusive time.
	Ticks uint64
	// MaxDepth is the deepest reconstructed stack.
	MaxDepth int
}

// Profile is the analyzer output.
type Profile struct {
	// PID is the process ID recorded in the log header.
	PID uint64
	// SamplePeriod is the sampling period recorded in the log header (1 for
	// full recordings; the header's 0 normalizes to 1). When above 1, every
	// weight in the profile — tick totals, folded stacks, call counts — has
	// been scaled by it, so the profile estimates the full recording.
	SamplePeriod uint64
	// TotalTicks is the sum of root-frame inclusive ticks over all
	// threads — the denominator for percentages.
	TotalTicks uint64
	// Truncated counts frames force-closed because the log ended (the
	// paper's analyzer similarly dismisses possibly-wrong records at the
	// log end).
	Truncated int
	// Unmatched counts return entries with no corresponding call
	// (typically the result of toggling recording mid-run).
	Unmatched int
	// Dismissed counts log slots that carried no committed event: holes a
	// batched writer reserved but never filled (thread ID 0) and released
	// slots (tombstones). They are skipped, exactly as the paper's
	// analyzer dismisses possibly-wrong records.
	Dismissed int
	// Dropped is the number of entries lost to log overflow, as recorded
	// in the log.
	Dropped uint64
	// Recovery carries the salvage report when the profile was built from
	// a log recovered by shmlog.ReadLenient (nil for clean logs). When
	// set, return entries whose call was lost to the salvage are
	// attributed to the synthetic TruncatedFrameName function instead of
	// being silently dropped, so the damage is visible in tables and
	// flame graphs.
	Recovery *shmlog.RecoveryReport

	funcs     []FuncStat
	byName    map[string]int
	threads   []ThreadStat
	records   []Record
	folded    map[string]uint64
	pathStats map[string]*pathAccum
}

// pathAccum collects per-call-path totals during analysis.
type pathAccum struct {
	calls, incl, self uint64
}

// ErrNilInput is returned when Analyze receives nil arguments.
var ErrNilInput = errors.New("analyzer: nil log or symbol table")

// TruncatedFrameName is the synthetic frame recovered-but-unmatched
// entries are attributed to when analyzing a salvaged log: the visible
// scar of a torn head or tail, mirroring the analyzer's existing
// force-close tolerance for truncated tails.
const TruncatedFrameName = "[truncated]"

// Options tunes AnalyzeWith. The zero value matches Analyze.
type Options struct {
	// Parallelism is the number of worker goroutines reconstructing
	// per-thread call stacks (threads are independent by construction);
	// 0 means GOMAXPROCS, 1 forces the serial path. The output is
	// byte-identical at every setting.
	Parallelism int

	// Recovery marks the log as salvaged by shmlog.ReadLenient and
	// attaches the salvage report to the profile. In recovery mode,
	// unmatched returns — calls lost with the torn region — surface as
	// zero-tick records under TruncatedFrameName instead of vanishing
	// into a counter.
	Recovery *shmlog.RecoveryReport
}

// threadEntries is one thread's slice of the log: the committed entries
// attributed to it, with each entry's global log index (the merge key that
// makes the parallel reconstruction deterministic).
type threadEntries struct {
	id      uint64
	entries []shmlog.Entry
	at      []int
}

// closedRec is a completed execution produced by a reconstruction worker,
// tagged with the global log index of the entry that closed it; force-closed
// frames are tagged past the end of the log in thread-discovery order, so a
// stable sort by the tag replays records in exactly the serial close order.
type closedRec struct {
	rec Record
	at  int
}

func closeTag(cr *closedRec) uint64 { return uint64(cr.at) }

// threadResult is one thread's reconstruction: its stack machine and, as
// the machine's sink, the records it closed, each tagged for the merge, and
// the thread's call-path table, which names every frame and holds the raw
// per-path totals of those records.
type threadResult struct {
	ts        threadStack
	paths     pathTable
	tab       *symtab.Table
	recs      []closedRec
	at        int // merge tag of the entry being fed
	truncated int
}

// opened names a frame by its call-path node, so an address is resolved
// once per distinct path, not once per call.
func (r *threadResult) opened(parent int, addr uint64) int {
	return r.paths.child(parent, addr, false, r.tab)
}

func (r *threadResult) closed(f closedFrame, under []frame) {
	n := &r.paths.nodes[f.id]
	n.calls++
	n.incl += f.incl
	n.self += f.self
	if f.self > 0 || n.name == TruncatedFrameName {
		n.folded = true
	}
	r.recs = append(r.recs, closedRec{
		rec: Record{
			Thread:    r.ts.id,
			Name:      n.name,
			Addr:      f.addr,
			Caller:    r.paths.nodes[n.parent].name, // the root node's name is ""
			Depth:     len(under),
			Start:     f.start,
			End:       f.end,
			Incl:      f.incl,
			Self:      f.self,
			Truncated: f.truncated,
		},
		at: r.at,
	})
}

// foldPaths adds one thread's call paths into p's folded and per-path
// maps. Each node's key is built once, as its parent's key, ';' and its
// name; addresses that display alike land on one key. Every node closed at
// least once, and scaling the raw sums by period equals summing the scaled
// records: (Σx)·period and Σ(x·period) agree in uint64 arithmetic.
func (p *Profile) foldPaths(pt *pathTable, period uint64) {
	keys := make([]string, len(pt.nodes))
	for i := 1; i < len(pt.nodes); i++ {
		n := &pt.nodes[i]
		key := n.name
		if n.parent != 0 {
			key = keys[n.parent] + ";" + n.name
		}
		keys[i] = key
		if n.folded {
			p.folded[key] += n.self * period
		}
		pa, ok := p.pathStats[key]
		if !ok {
			pa = &pathAccum{}
			p.pathStats[key] = pa
		}
		pa.calls += n.calls * period
		pa.incl += n.incl * period
		pa.self += n.self * period
	}
}

// Analyze reconstructs a profile from a recorded log.
func Analyze(log *shmlog.Log, tab *symtab.Table) (*Profile, error) {
	return AnalyzeWith(log, tab, Options{})
}

// AnalyzeRecovered reconstructs a profile from a log salvaged by
// shmlog.ReadLenient, attaching the recovery report and attributing
// salvaged-but-unmatched entries to the synthetic TruncatedFrameName
// frame.
func AnalyzeRecovered(log *shmlog.Log, tab *symtab.Table, rep *shmlog.RecoveryReport) (*Profile, error) {
	return AnalyzeWith(log, tab, Options{Recovery: rep})
}

// AnalyzeWith is Analyze with explicit tuning. It runs in three phases:
// a serial scan groups committed entries per thread (dismissing in-flight
// holes and released tombstones), a worker pool rebuilds each thread's call
// stack independently, and a serial merge — ordered by the global log index
// of each record's closing entry — folds the per-thread results into one
// profile. The merge order equals the serial close order, so the output is
// identical to a single-threaded analysis, worker scheduling notwithstanding.
func AnalyzeWith(log *shmlog.Log, tab *symtab.Table, opts Options) (*Profile, error) {
	if log == nil || tab == nil {
		return nil, ErrNilInput
	}
	// Recover the relocation offset from the recorded anchor address.
	if log.ProfilerAddr() != 0 {
		tab.SetLoadBias(log.ProfilerAddr())
	}

	// The sampling period scales every weight at the phase-3 merge below.
	// Reconstruction (phase 2) stays raw in the shared threadStack, and
	// integer-multiplying only the finished records keeps serial, parallel
	// and incremental results exactly equal.
	period := log.SamplePeriod()
	if period == 0 {
		period = 1
	}
	p := &Profile{
		PID:          log.PID(),
		SamplePeriod: period,
		byName:       make(map[string]int),
		folded:       make(map[string]uint64),
		pathStats:    make(map[string]*pathAccum),
		Dropped:      log.Dropped(),
		Recovery:     opts.Recovery,
	}
	lenient := opts.Recovery != nil

	// Phase 1 (serial): group entries per thread in log order.
	threads := make(map[uint64]*threadEntries)
	order := make([]uint64, 0, 8)
	n := log.Len()
	for i := 0; i < n; i++ {
		e, err := log.Entry(i)
		if err != nil {
			return nil, fmt.Errorf("analyzer: entry %d: %w", i, err)
		}
		if e.ThreadID == 0 || e.ThreadID == shmlog.TombstoneTID {
			p.Dismissed++
			continue
		}
		g, ok := threads[e.ThreadID]
		if !ok {
			g = &threadEntries{id: e.ThreadID}
			threads[e.ThreadID] = g
			order = append(order, e.ThreadID)
		}
		g.entries = append(g.entries, e)
		g.at = append(g.at, i)
	}

	// Phase 2 (parallel): rebuild each thread's stacks. The symbol table's
	// resolver is concurrency-safe; everything else is thread-local.
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(order) {
		workers = len(order)
	}
	results := make([]threadResult, len(order))
	if workers <= 1 {
		for oi, tid := range order {
			analyzeThread(&results[oi], threads[tid], tab, n+oi, lenient)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for oi := range jobs {
					analyzeThread(&results[oi], threads[order[oi]], tab, n+oi, lenient)
				}
			}()
		}
		for oi := range order {
			jobs <- oi
		}
		close(jobs)
		wg.Wait()
	}

	// Phase 3 (serial): merge deterministically. Records carry the global
	// index of their closing entry; at most one thread closes records at any
	// given index, and within a thread the worker emitted them in order, so
	// merging the per-thread lists by that tag reproduces the serial close
	// order exactly.
	total := 0
	parts := make([][]closedRec, len(results))
	for oi := range results {
		r := &results[oi]
		stat := ThreadStat{
			ID:       r.ts.id,
			Events:   r.ts.events,
			Calls:    r.ts.calls * period,
			Ticks:    r.ts.rootTicks * period,
			MaxDepth: r.ts.maxDepth,
		}
		p.threads = append(p.threads, stat)
		p.TotalTicks += stat.Ticks
		p.Truncated += r.truncated
		p.Unmatched += r.ts.unmatched
		total += len(r.recs)
		parts[oi] = r.recs
	}
	p.records = make([]Record, 0, total)
	runmerge.Each(parts, closeTag, func(cr *closedRec) {
		cr.rec.Incl *= period
		cr.rec.Self *= period
		p.records = append(p.records, cr.rec)
		p.accumulate(cr.rec, period)
	})
	// Folded stacks and path totals are sums, so they need no close order:
	// each thread's path table merges in whole.
	for oi := range results {
		p.foldPaths(&results[oi].paths, period)
	}

	sort.Slice(p.threads, func(i, j int) bool { return p.threads[i].ID < p.threads[j].ID })
	sort.Slice(p.funcs, func(i, j int) bool {
		if p.funcs[i].Self != p.funcs[j].Self {
			return p.funcs[i].Self > p.funcs[j].Self
		}
		return p.funcs[i].Name < p.funcs[j].Name
	})
	p.byName = make(map[string]int, len(p.funcs))
	for i, f := range p.funcs {
		p.byName[f.Name] = i
	}
	return p, nil
}

// analyzeThread rebuilds one thread's call stack from its entry stream
// into r. forceAt is the merge tag for frames force-closed at the end of the
// log (past every real index, ordered by thread discovery). In lenient
// (recovery) mode, unmatched returns surface as zero-tick records under
// TruncatedFrameName rather than being dropped.
func analyzeThread(r *threadResult, g *threadEntries, tab *symtab.Table, forceAt int, lenient bool) {
	r.ts.id = g.id
	r.paths = newPathTable()
	r.tab = tab
	for k := range g.entries {
		e := &g.entries[k]
		r.at = g.at[k]
		if !r.ts.feed(*e, r) && lenient {
			// The call side was lost with the torn region: attribute the
			// orphaned return to a zero-width synthetic truncated frame so
			// the salvage scar is visible. Its path is registered in the
			// folded map even at zero weight, so flame graphs show WHERE
			// the torn activity happened.
			path := r.paths.child(r.ts.topID(), 0, true, nil)
			r.closed(closedFrame{
				frame:     frame{addr: e.Addr, start: e.Counter, id: path},
				end:       e.Counter,
				truncated: true,
			}, r.ts.stack)
		}
	}
	r.at = forceAt
	r.truncated = r.ts.closeAll(r)
}

// accumulate folds one (already weight-scaled) record into the per-function
// table; period scales the call counts, matching the record's tick scaling.
func (p *Profile) accumulate(rec Record, period uint64) {
	i, ok := p.byName[rec.Name]
	if !ok {
		i = len(p.funcs)
		p.byName[rec.Name] = i
		p.funcs = append(p.funcs, FuncStat{
			Name:    rec.Name,
			Addr:    rec.Addr,
			Callers: make(map[string]uint64),
			Callees: make(map[string]uint64),
		})
	}
	f := &p.funcs[i]
	if f.Addr == 0 {
		f.Addr = rec.Addr
	}
	f.Calls += period
	f.Incl += rec.Incl
	f.Self += rec.Self
	if rec.Caller != "" {
		f.Callers[rec.Caller] += period
		// Register the callee edge on the caller as well.
		j, ok := p.byName[rec.Caller]
		if !ok {
			j = len(p.funcs)
			p.byName[rec.Caller] = j
			p.funcs = append(p.funcs, FuncStat{
				Name:    rec.Caller,
				Callers: make(map[string]uint64),
				Callees: make(map[string]uint64),
			})
			f = &p.funcs[i] // re-take: append may have moved the slice
		}
		p.funcs[j].Callees[rec.Name] += period
	}
}

// Funcs returns per-function statistics sorted by self time (descending).
func (p *Profile) Funcs() []FuncStat {
	out := make([]FuncStat, len(p.funcs))
	copy(out, p.funcs)
	return out
}

// Top returns the n hottest functions by self time.
func (p *Profile) Top(n int) []FuncStat {
	if n > len(p.funcs) {
		n = len(p.funcs)
	}
	if n <= 0 {
		return nil
	}
	out := make([]FuncStat, n)
	copy(out, p.funcs[:n])
	return out
}

// Func returns the statistics for a function by resolved name.
func (p *Profile) Func(name string) (FuncStat, bool) {
	i, ok := p.byName[name]
	if !ok {
		return FuncStat{}, false
	}
	return p.funcs[i], true
}

// SelfFraction returns a function's share of total self time, in [0,1].
func (p *Profile) SelfFraction(name string) float64 {
	f, ok := p.Func(name)
	if !ok || p.TotalTicks == 0 {
		return 0
	}
	return float64(f.Self) / float64(p.TotalTicks)
}

// Threads returns per-thread statistics sorted by thread ID.
func (p *Profile) Threads() []ThreadStat {
	out := make([]ThreadStat, len(p.threads))
	copy(out, p.threads)
	return out
}

// Records returns every completed execution in completion order.
func (p *Profile) Records() []Record {
	out := make([]Record, len(p.records))
	copy(out, p.records)
	return out
}

// Folded returns the folded-stack map: "root;child;leaf" -> self ticks.
func (p *Profile) Folded() map[string]uint64 {
	out := make(map[string]uint64, len(p.folded))
	for k, v := range p.folded {
		out[k] = v
	}
	return out
}

// WriteTable renders the top-n functions as an aligned text table, the
// analyzer's default sorted report.
func (p *Profile) WriteTable(w io.Writer, n int) error {
	top := p.Top(n)
	if _, err := fmt.Fprintf(w, "%-44s %12s %14s %14s %7s\n",
		"FUNCTION", "CALLS", "SELF", "INCL", "SELF%"); err != nil {
		return err
	}
	for _, f := range top {
		pct := 0.0
		if p.TotalTicks > 0 {
			pct = 100 * float64(f.Self) / float64(p.TotalTicks)
		}
		name := f.Name
		if len(name) > 44 {
			name = name[:41] + "..."
		}
		if _, err := fmt.Fprintf(w, "%-44s %12d %14d %14d %6.2f%%\n",
			name, f.Calls, f.Self, f.Incl, pct); err != nil {
			return err
		}
	}
	return nil
}
