package analyzer

import (
	"slices"
	"sort"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// Incremental folds a live stream of log entries into a per-method
// inclusive/exclusive-time table without reparsing the whole log. It is the
// online counterpart of Analyze: the monitor feeds it the entries a
// shmlog.Cursor surfaces while the workload is still running, and a
// Snapshot at any point reflects everything committed so far.
//
// Each thread is rebuilt by the same per-thread stack machine Analyze runs,
// fed live instead of from a grouped log: unmatched returns are counted and
// skipped, and a Snapshot force-closes a copy of the open frames at their
// thread's last observed counter value, exactly as Analyze force-closes
// them at the log's end. Once the stream has been fully drained, a snapshot
// therefore equals the offline analyzer's result by construction.
//
// Batched writers (probe.WithBatch) never disturb the stream: the cursor
// skips in-flight reserved slots and revisits them once committed, emitting
// resolved holes before newer entries, and drops released (tombstoned)
// slots entirely — so Incremental only ever sees committed events, each
// thread's in order.
//
// Each address is resolved to a name once: the first call at an address
// memoizes its function index, and later calls and closes touch no string.
// The memo is dropped when SetTable swaps the table and when the table's
// load bias moves, which FeedAll checks once per batch.
//
// An Incremental is not safe for concurrent use; the monitor serializes
// access to it.
type Incremental struct {
	threads map[uint64]*threadStack
	order   []uint64
	live    liveTotals
}

// liveTotals is the live table's running aggregate: the sink Incremental's
// stack machines open and close frames into. A frame's id is its function
// index in funcs. It applies the sampling period, so reconstruction stays
// raw exactly like the offline analyzer's, and a drained snapshot still
// equals Analyze's result on sampled logs.
type liveTotals struct {
	tab        *symtab.Table
	bias       int64          // tab's load bias when byAddr was filled
	byAddr     map[uint64]int // function index per address: the name memo
	byName     map[string]int // function index per display name
	funcs      []LiveFunc
	period     uint64 // weight multiplier, >= 1
	calls      uint64
	totalTicks uint64 // inclusive ticks of closed root frames
}

// opened returns addr's function index, resolving its name the first time
// the address is seen. Addresses that display alike share one index.
func (lt *liveTotals) opened(_ int, addr uint64) int {
	if i, ok := lt.byAddr[addr]; ok {
		return i
	}
	name := lt.tab.Name(addr)
	i, ok := lt.byName[name]
	if !ok {
		i = len(lt.funcs)
		lt.funcs = append(lt.funcs, LiveFunc{Name: name, addr: addr})
		lt.byName[name] = i
	}
	lt.byAddr[addr] = i
	return i
}

// checkBias drops the memo when the table's load bias has moved since it
// was filled: an address then resolves to another function.
func (lt *liveTotals) checkBias() {
	if b := lt.tab.LoadBias(); b != lt.bias {
		lt.bias = b
		clear(lt.byAddr)
	}
}

func (lt *liveTotals) closed(f closedFrame, under []frame) {
	lf := &lt.funcs[f.id]
	lf.Calls += lt.period
	lf.Incl += f.incl * lt.period
	lf.Self += f.self * lt.period
	lt.calls += lt.period
	if len(under) == 0 {
		lt.totalTicks += f.incl * lt.period
	}
}

// LiveFunc is one function's running totals in the live table.
type LiveFunc struct {
	// Name is the resolved function name.
	Name string
	// Calls counts closed executions (plus provisionally closed frames in
	// snapshots).
	Calls uint64
	// Incl and Self are total inclusive and exclusive ticks.
	Incl, Self uint64

	// addr remembers the first runtime address seen for the function so
	// SetTable can re-resolve accumulated totals when symbols arrive
	// mid-stream.
	addr uint64
}

// LiveTable is a point-in-time view of the live profile.
type LiveTable struct {
	// TotalTicks is the inclusive time of all root frames, including
	// provisionally closed ones — the denominator for percentages.
	TotalTicks uint64
	// Entries is the number of log entries folded in so far.
	Entries int
	// Calls is the number of closed executions.
	Calls uint64
	// Unmatched counts returns with no corresponding call.
	Unmatched int
	// OpenFrames counts frames that were provisionally closed for this
	// snapshot (calls still in flight).
	OpenFrames int
	// Threads is the number of threads observed.
	Threads int
	// MaxDepth is the deepest stack observed on any thread.
	MaxDepth int
	// Funcs is sorted by self time (descending, ties by name).
	Funcs []LiveFunc
}

// SelfPercent returns f's share of the table's total ticks, in percent.
func (t *LiveTable) SelfPercent(f LiveFunc) float64 {
	if t.TotalTicks == 0 {
		return 0
	}
	return 100 * float64(f.Self) / float64(t.TotalTicks)
}

// NewIncremental creates an incremental analyzer resolving addresses
// through tab. Set the table's load bias (from the log's profiler anchor)
// before feeding entries, exactly as Analyze does.
func NewIncremental(tab *symtab.Table) *Incremental {
	return &Incremental{
		threads: make(map[uint64]*threadStack),
		live: liveTotals{
			tab:    tab,
			bias:   tab.LoadBias(),
			byAddr: make(map[uint64]int),
			byName: make(map[string]int),
			period: 1,
		},
	}
}

// SetSamplePeriod sets the weight multiplier for a sampled stream (the
// log header's sampling period; 0 and 1 both mean unscaled). Entries fed
// after the call are aggregated at the new weight — live monitors refresh
// it from the header each poll, so a mid-run throttle scales the entries
// recorded under it.
func (inc *Incremental) SetSamplePeriod(n uint64) {
	if n == 0 {
		n = 1
	}
	inc.live.period = n
}

// SamplePeriod returns the current weight multiplier.
func (inc *Incremental) SamplePeriod() uint64 { return inc.live.period }

// Feed folds one log entry into the live table.
func (inc *Incremental) Feed(e shmlog.Entry) {
	inc.live.checkBias()
	inc.feed(e)
}

// FeedAll folds a batch of entries in order.
func (inc *Incremental) FeedAll(entries []shmlog.Entry) {
	inc.live.checkBias()
	for _, e := range entries {
		inc.feed(e)
	}
}

func (inc *Incremental) feed(e shmlog.Entry) {
	ts, ok := inc.threads[e.ThreadID]
	if !ok {
		ts = &threadStack{id: e.ThreadID}
		inc.threads[e.ThreadID] = ts
		inc.order = append(inc.order, e.ThreadID)
	}
	ts.feed(e, &inc.live)
}

// Entries returns how many log entries have been folded in.
func (inc *Incremental) Entries() int {
	n := 0
	for _, ts := range inc.threads {
		n += ts.events
	}
	return n
}

// Unmatched returns how many returns had no corresponding call.
func (inc *Incremental) Unmatched() int {
	n := 0
	for _, ts := range inc.threads {
		n += ts.unmatched
	}
	return n
}

// OpenFrames returns how many calls are currently in flight.
func (inc *Incremental) OpenFrames() int {
	open := 0
	for _, ts := range inc.threads {
		open += len(ts.stack)
	}
	return open
}

// SetTable swaps the resolution table and retroactively re-resolves every
// accumulated name — the open stacks and the per-function totals. This is
// how an external observer (the fleet agent) handles symbols that arrive
// after entries were already folded: addresses were accumulated under
// their placeholder "0x…" names, and the fresh table gives them real ones.
// Totals that re-resolve to the same name are merged. The address memo
// starts over under the new table.
func (inc *Incremental) SetTable(tab *symtab.Table) {
	lt := &inc.live
	if tab == nil || tab == lt.tab {
		return
	}
	old := lt.funcs
	lt.tab, lt.bias, lt.funcs = tab, tab.LoadBias(), nil
	clear(lt.byAddr)
	clear(lt.byName)
	for _, lf := range old {
		if lf.Calls == 0 {
			continue // only open frames hold it; they re-resolve below
		}
		f := &lt.funcs[lt.opened(0, lf.addr)]
		f.Calls += lf.Calls
		f.Incl += lf.Incl
		f.Self += lf.Self
	}
	for _, ts := range inc.threads {
		for i := range ts.stack {
			ts.stack[i].id = lt.opened(0, ts.stack[i].addr)
		}
	}
}

// Snapshot returns the current live table. Frames still open are
// provisionally closed at their thread's last observed counter value: each
// thread's open frames are copied and force-closed into a copy of the
// totals, so snapshotting never perturbs the running state. A top of 0
// returns every function.
func (inc *Incremental) Snapshot(top int) LiveTable {
	snap := inc.live
	snap.funcs = slices.Clone(inc.live.funcs)

	t := LiveTable{Threads: len(inc.threads)}
	var cp threadStack
	for _, tid := range inc.order {
		ts := inc.threads[tid]
		t.Entries += ts.events
		t.Unmatched += ts.unmatched
		t.MaxDepth = max(t.MaxDepth, ts.maxDepth)
		stack := append(cp.stack[:0], ts.stack...)
		cp = *ts
		cp.stack = stack
		t.OpenFrames += cp.closeAll(&snap)
	}
	t.TotalTicks, t.Calls = snap.totalTicks, snap.calls

	// Every row has closed a frame or has one open, which closeAll just
	// closed, so no row is empty.
	t.Funcs = snap.funcs
	sort.Slice(t.Funcs, func(i, j int) bool {
		if t.Funcs[i].Self != t.Funcs[j].Self {
			return t.Funcs[i].Self > t.Funcs[j].Self
		}
		return t.Funcs[i].Name < t.Funcs[j].Name
	})
	if top > 0 && len(t.Funcs) > top {
		t.Funcs = t.Funcs[:top]
	}
	return t
}
