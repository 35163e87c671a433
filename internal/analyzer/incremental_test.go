package analyzer

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// feedAllFromLog replays a fixture's log through an incremental analyzer
// the way the monitor's cursor would: in committed log order.
func feedAllFromLog(inc *Incremental, log *shmlog.Log) {
	inc.FeedAll(log.Cursor().Next(nil))
}

func TestIncrementalMatchesAnalyzeNested(t *testing.T) {
	f := newFixture(t, 16, "main", "work", "leaf")
	f.call(t, 1, "main", 0)
	f.call(t, 1, "work", 10)
	f.call(t, 1, "leaf", 20)
	f.ret(t, 1, "leaf", 30)
	f.ret(t, 1, "work", 60)
	f.ret(t, 1, "main", 100)

	inc := NewIncremental(f.tab)
	feedAllFromLog(inc, f.log)
	got := inc.Snapshot(0)
	p := f.analyze(t)
	assertTablesMatch(t, got, p)
	if got.OpenFrames != 0 {
		t.Errorf("OpenFrames = %d after a balanced stream", got.OpenFrames)
	}
}

func TestIncrementalMatchesAnalyzeTruncatedAndUnmatched(t *testing.T) {
	f := newFixture(t, 32, "main", "work", "other")
	// Unmatched return (recording toggled mid-run)...
	f.ret(t, 1, "other", 5)
	// ...then a run that ends with frames still open.
	f.call(t, 1, "main", 10)
	f.call(t, 1, "work", 20)
	f.ret(t, 1, "work", 50)
	f.call(t, 1, "work", 60) // never returns
	// A second thread entirely open.
	f.call(t, 2, "other", 0)
	f.call(t, 2, "work", 40)

	inc := NewIncremental(f.tab)
	feedAllFromLog(inc, f.log)
	got := inc.Snapshot(0)
	p := f.analyze(t)
	assertTablesMatch(t, got, p)
	if got.Unmatched != p.Unmatched {
		t.Errorf("Unmatched = %d, offline %d", got.Unmatched, p.Unmatched)
	}
	if got.OpenFrames != p.Truncated {
		t.Errorf("OpenFrames = %d, offline force-closed %d", got.OpenFrames, p.Truncated)
	}
}

func TestIncrementalMatchesAnalyzeRandomStream(t *testing.T) {
	// Randomized multi-thread call/return streams: whatever the offline
	// analyzer computes over a prefix of the stream, a snapshot of the
	// incremental fold fed exactly that prefix must reproduce — frames
	// still open are provisionally closed just as Analyze force-closes
	// them at the log's end. The mixed cases add stray returns, which are
	// unmatched or close every frame above their newest match.
	names := []string{"a", "b", "c", "d", "e"}
	f := newFixture(t, 1, names...)
	type streamCase struct {
		seed  int64
		mixed bool
	}
	cases := []streamCase{{seed: 7}}
	for seed := int64(1); seed <= 50; seed++ {
		cases = append(cases, streamCase{seed: seed, mixed: true})
	}
	cuts := []int{1, 7, 50, 333, 1000, 1999, 2000}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		stream := make([]shmlog.Entry, cuts[len(cuts)-1])
		now := uint64(0)
		depth := map[uint64][]string{}
		for i := range stream {
			tid := uint64(1 + rng.Intn(3))
			now += uint64(1 + rng.Intn(5))
			stack := depth[tid]
			e := shmlog.Entry{Kind: shmlog.KindReturn, Counter: now, ThreadID: tid}
			switch {
			case c.mixed && rng.Intn(20) == 0:
				name := names[rng.Intn(len(names))]
				e.Addr = f.fns[name]
				for d := len(stack) - 1; d >= 0; d-- {
					if stack[d] == name {
						depth[tid] = stack[:d]
						break
					}
				}
			case len(stack) > 0 && rng.Intn(2) == 0:
				e.Addr = f.fns[stack[len(stack)-1]]
				depth[tid] = stack[:len(stack)-1]
			default:
				name := names[rng.Intn(len(names))]
				e.Kind, e.Addr = shmlog.KindCall, f.fns[name]
				depth[tid] = append(stack, name)
			}
			stream[i] = e
		}

		inc := NewIncremental(f.tab)
		fed := 0
		for _, cut := range cuts {
			inc.FeedAll(stream[fed:cut])
			fed = cut
			log, err := shmlog.New(cut)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range stream[:cut] {
				if err := log.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			p, err := Analyze(log, f.tab)
			if err != nil {
				t.Fatal(err)
			}
			live := inc.Snapshot(0)
			assertTablesMatch(t, live, p)
			if live.Unmatched != p.Unmatched {
				t.Errorf("seed %d cut %d: Unmatched = %d, offline %d", c.seed, cut, live.Unmatched, p.Unmatched)
			}
			if live.OpenFrames != p.Truncated {
				t.Errorf("seed %d cut %d: OpenFrames = %d, offline force-closed %d", c.seed, cut, live.OpenFrames, p.Truncated)
			}
			if t.Failed() {
				t.Fatalf("seed %d (mixed=%v) diverged at cut %d", c.seed, c.mixed, cut)
			}
		}
	}
}

func TestIncrementalSnapshotDoesNotPerturbState(t *testing.T) {
	f := newFixture(t, 16, "main", "work")
	f.call(t, 1, "main", 0)
	f.call(t, 1, "work", 10)

	inc := NewIncremental(f.tab)
	cur := f.log.Cursor()
	inc.FeedAll(cur.Next(nil))
	first := inc.Snapshot(0)
	second := inc.Snapshot(0)
	if first.TotalTicks != second.TotalTicks || len(first.Funcs) != len(second.Funcs) {
		t.Fatalf("repeated snapshots differ: %+v vs %+v", first, second)
	}
	for i := range first.Funcs {
		if first.Funcs[i] != second.Funcs[i] {
			t.Errorf("func %d drifted across snapshots: %+v vs %+v", i, first.Funcs[i], second.Funcs[i])
		}
	}

	// Completing the stream must still close frames with the full
	// inclusive time, proving the snapshots above worked on copies.
	f.ret(t, 1, "work", 60)
	f.ret(t, 1, "main", 100)
	inc.FeedAll(cur.Next(nil))
	assertTablesMatch(t, inc.Snapshot(0), f.analyze(t))
}

func TestIncrementalTopLimit(t *testing.T) {
	f := newFixture(t, 64, "a", "b", "c", "d")
	now := uint64(0)
	for _, n := range []string{"a", "b", "c", "d"} {
		f.call(t, 1, n, now)
		now += 10
		f.ret(t, 1, n, now)
		now += 1
	}
	inc := NewIncremental(f.tab)
	feedAllFromLog(inc, f.log)
	if got := inc.Snapshot(2); len(got.Funcs) != 2 {
		t.Errorf("Snapshot(2) returned %d funcs", len(got.Funcs))
	}
	if got := inc.Snapshot(0); len(got.Funcs) != 4 {
		t.Errorf("Snapshot(0) returned %d funcs", len(got.Funcs))
	}
}

// TestIncrementalSetTableDropsMemo starts the live engine on an empty table,
// so every address it sees memoizes a hex placeholder, and swaps in the
// real table with frames still open. Calls after the swap must resolve
// through the new table, not the stale memo, and the drained snapshot must
// equal the offline result under the real table.
func TestIncrementalSetTableDropsMemo(t *testing.T) {
	f := newFixture(t, 32, "main", "work", "leaf")
	f.call(t, 1, "main", 0)
	f.call(t, 1, "work", 10)
	f.call(t, 1, "leaf", 20)
	f.ret(t, 1, "leaf", 30)
	f.call(t, 2, "work", 5)
	half := f.log.Len()
	f.call(t, 1, "leaf", 40)
	f.ret(t, 1, "leaf", 45)
	f.ret(t, 1, "work", 60)
	f.ret(t, 1, "main", 100)
	f.call(t, 2, "leaf", 50)
	f.ret(t, 2, "leaf", 70)
	f.ret(t, 2, "work", 80)
	entries := f.log.Cursor().Next(nil)

	inc := NewIncremental(symtab.New())
	inc.FeedAll(entries[:half])
	if open := inc.OpenFrames(); open != 3 {
		t.Fatalf("OpenFrames = %d before the swap, want 3", open)
	}
	for _, lf := range inc.Snapshot(0).Funcs {
		if !strings.HasPrefix(lf.Name, "0x") {
			t.Fatalf("%q resolved through an empty table", lf.Name)
		}
	}
	inc.SetTable(f.tab)
	inc.FeedAll(entries[half:])
	assertTablesMatch(t, inc.Snapshot(0), f.analyze(t))
}

// TestIncrementalMemoFollowsLoadBias moves the table's load bias between
// two batches. The same runtime address names another function under the
// new bias, and the second batch must resolve exactly as a fresh
// Incremental would under it.
func TestIncrementalMemoFollowsLoadBias(t *testing.T) {
	tab := symtab.New()
	tab.MustRegister("a", 16, "t.go", 1)
	b := tab.MustRegister("b", 16, "t.go", 2)
	c := tab.MustRegister("c", 16, "t.go", 3)
	pairs := func(tid uint64, at uint64, addrs ...uint64) []shmlog.Entry {
		var es []shmlog.Entry
		for _, addr := range addrs {
			es = append(es,
				shmlog.Entry{Kind: shmlog.KindCall, Counter: at, Addr: addr, ThreadID: tid},
				shmlog.Entry{Kind: shmlog.KindReturn, Counter: at + 10, Addr: addr, ThreadID: tid})
			at += 20
		}
		return es
	}
	first := pairs(1, 0, b, c)
	second := pairs(2, 100, b, c, b)

	inc := NewIncremental(tab)
	inc.FeedAll(first)
	want := liveTotalsByName(fedFresh(tab, first))
	tab.SetLoadBias(tab.AnchorAddr() + 16) // b now names a, c names b
	inc.FeedAll(second)
	for name, v := range liveTotalsByName(fedFresh(tab, second)) {
		want[name] = [3]uint64{want[name][0] + v[0], want[name][1] + v[1], want[name][2] + v[2]}
	}
	got := liveTotalsByName(inc.Snapshot(0))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("totals after the bias move = %v, want %v", got, want)
	}
	if _, ok := got["a"]; !ok {
		t.Fatalf("no call resolved under the new bias: %v", got)
	}
}

// TestIncrementalMemoCollision calls two functions whose addresses share
// one slot of the address memo, alternately and under different parents on
// two threads, so each call evicts the other's slot. The live table must
// still equal the offline analyzer's.
func TestIncrementalMemoCollision(t *testing.T) {
	// One more function than the memo has slots: two of them must share one.
	names := []string{"p", "q"}
	for i := 0; i <= len(addrMemo{}); i++ {
		names = append(names, fmt.Sprintf("f%04d", i))
	}
	f := newFixture(t, 128, names...)
	var memo addrMemo
	bySlot := map[int]string{}
	var a, b string
	for _, n := range names[2:] {
		s := memo.slot(f.fns[n])
		if other, ok := bySlot[s]; ok {
			a, b = other, n
			break
		}
		bySlot[s] = n
	}
	if a == "" {
		t.Fatal("no two function addresses share a memo slot")
	}

	at := uint64(0)
	tick := func(d uint64) uint64 { at += d; return at }
	for round := uint64(0); round < 8; round++ {
		tid, parent, first, second := 1+round%2, "p", a, b
		if round%2 == 1 {
			parent, first, second = "q", b, a
		}
		f.call(t, tid, parent, tick(1))
		f.call(t, tid, first, tick(2))
		f.ret(t, tid, first, tick(3+round))
		f.call(t, tid, second, tick(1))
		f.ret(t, tid, second, tick(5+2*round))
		f.ret(t, tid, parent, tick(7))
	}
	inc := NewIncremental(f.tab)
	for _, e := range f.log.Cursor().Next(nil) {
		inc.Feed(e)
	}
	assertTablesMatch(t, inc.Snapshot(0), f.analyze(t))
}

// TestLiveDrainAllocatesNothingWhenWarm drains same-size bursts through
// Cursor.Next into a reused buffer and folds them in: once the first
// burst has grown the buffer, named the functions and met the threads, a
// drain allocates nothing.
func TestLiveDrainAllocatesNothingWhenWarm(t *testing.T) {
	const runs = 20
	const pairs = 64
	const burstLen = 2 * (2 + 4*pairs) // two threads, each main around pairs of work/leaf
	f := newFixture(t, (runs+2)*burstLen, "main", "work", "leaf")
	main, work, leaf := f.fns["main"], f.fns["work"], f.fns["leaf"]
	at := uint64(0)
	appendEntry := func(kind shmlog.Kind, tid, addr uint64) {
		at++
		if err := f.log.Append(shmlog.Entry{Kind: kind, Counter: at, Addr: addr, ThreadID: tid}); err != nil {
			t.Fatal(err)
		}
	}
	cur, inc := f.log.Cursor(), NewIncremental(f.tab)
	var buf []shmlog.Entry
	drain := func() {
		for tid := uint64(1); tid <= 2; tid++ {
			appendEntry(shmlog.KindCall, tid, main)
			for k := 0; k < pairs; k++ {
				appendEntry(shmlog.KindCall, tid, work)
				appendEntry(shmlog.KindCall, tid, leaf)
				appendEntry(shmlog.KindReturn, tid, leaf)
				appendEntry(shmlog.KindReturn, tid, work)
			}
			appendEntry(shmlog.KindReturn, tid, main)
		}
		if buf = cur.Next(buf[:0]); len(buf) != burstLen {
			t.Fatalf("Next drained %d entries, want %d", len(buf), burstLen)
		}
		inc.FeedAll(buf)
	}
	drain()
	if n := testing.AllocsPerRun(runs, drain); n != 0 {
		t.Fatalf("a warm drain allocates %.1f times, want 0", n)
	}
	if got := inc.Snapshot(0).Entries; got != (runs+2)*burstLen {
		t.Fatalf("folded %d entries, want %d", got, (runs+2)*burstLen)
	}
}

// liveShape is the traffic one perfbench workload's agent scrapes fold:
// the call trees its program generator draws (functions, roots, callees
// per function, calls per tree, depth band) and how many entries of one
// thread arrive before another thread's.
type liveShape struct {
	name      string
	funcs     int
	roots     int
	callees   int // 0 is storm's loop of one-instruction calls
	treeCalls int
	spine     int // depth every tree descends to first
	maxDepth  int
	threads   int // threads in one burst
	run       int // entries of one thread before the next thread's
}

// liveShapes mirror perfbench's storm, calltree and fleet workloads. Over
// their seed-1 scrapes 99.9–100% of the entries continue the previous
// entry's thread: a storm or fleet burst is one thread's, a calltree
// burst interleaves eight threads in runs of about 1365 entries. The
// address memo answered 100% of storm's calls, 97% of fleet's (each miss
// an address's first sight) and 83% of calltree's, whose 3000 functions
// outnumber its slots.
var liveShapes = []liveShape{
	{name: "storm", funcs: 2, threads: 1, run: 1 << 15},
	{name: "calltree", funcs: 3000, roots: 64, callees: 6, treeCalls: 512, spine: 12, maxDepth: 48, threads: 8, run: 1365},
	{name: "fleet", funcs: 512, roots: 32, callees: 3, treeCalls: 64, spine: 3, maxDepth: 12, threads: 1, run: 1 << 15},
}

// burst returns about n balanced entries of sh's traffic: each thread's
// trees close before the burst ends, so a burst can be folded again and
// again on empty stacks.
func (sh liveShape) burst(tab *symtab.Table, n int) []shmlog.Entry {
	addrs := make([]uint64, sh.funcs)
	for i := range addrs {
		addrs[i] = tab.MustRegister(fmt.Sprintf("%s.fn%04d", sh.name, i), 64, sh.name+".go", i+1)
	}
	rng := rand.New(rand.NewSource(1))
	callees := make([][]int, sh.funcs)
	for f := range callees {
		for k := 0; k < sh.callees; k++ {
			callees[f] = append(callees[f], rng.Intn(sh.funcs))
		}
	}
	perThread := make([][]shmlog.Entry, sh.threads)
	for t := range perThread {
		tid, at := uint64(t+1), uint64(0)
		var es []shmlog.Entry
		var stack []int
		call := func(f int) {
			at += 3
			stack = append(stack, f)
			es = append(es, shmlog.Entry{Kind: shmlog.KindCall, Counter: at, Addr: addrs[f], ThreadID: tid})
		}
		ret := func() {
			at += 5
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			es = append(es, shmlog.Entry{Kind: shmlog.KindReturn, Counter: at, Addr: addrs[f], ThreadID: tid})
		}
		for len(es) < n/sh.threads {
			if sh.callees == 0 {
				// storm: a loop frame issuing 256 one-instruction calls.
				call(0)
				for i := 0; i < 256; i++ {
					call(1)
					ret()
				}
				ret()
				continue
			}
			// perfbench's walk: descend the spine, then return-and-call
			// or call with even odds, staying within the depth band.
			call(rng.Intn(sh.roots))
			for c := 1; c < sh.treeCalls; c++ {
				if len(stack) >= sh.spine && (len(stack) >= sh.maxDepth || rng.Intn(2) == 0) {
					ret()
				}
				call(callees[stack[len(stack)-1]][rng.Intn(sh.callees)])
			}
			for len(stack) > 0 {
				ret()
			}
		}
		perThread[t] = es
	}
	// Interleave the threads in runs, as a sharded log's segments hand
	// them to the cursor.
	longest := 0
	for _, es := range perThread {
		longest = max(longest, len(es))
	}
	var entries []shmlog.Entry
	for off := 0; off < longest; off += sh.run {
		for _, es := range perThread {
			if off < len(es) {
				entries = append(entries, es[off:min(off+sh.run, len(es))]...)
			}
		}
	}
	return entries
}

// BenchmarkIncrementalFeedAll measures the live drain's fold half: per
// iteration a warm Incremental folds one 32 Ki-entry burst of each
// workload's traffic (liveShapes). Divide ns/op by entries/op for the
// cost per entry.
func BenchmarkIncrementalFeedAll(b *testing.B) {
	for _, sh := range liveShapes {
		b.Run(sh.name, func(b *testing.B) {
			tab := symtab.New()
			entries := sh.burst(tab, 1<<15)
			inc := NewIncremental(tab)
			inc.FeedAll(entries)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inc.FeedAll(entries)
			}
			b.ReportMetric(float64(len(entries)), "entries/op")
		})
	}
}

func fedFresh(tab *symtab.Table, entries []shmlog.Entry) LiveTable {
	inc := NewIncremental(tab)
	inc.FeedAll(entries)
	return inc.Snapshot(0)
}

// liveTotalsByName maps each function of a live table to its calls,
// inclusive and exclusive ticks.
func liveTotalsByName(t LiveTable) map[string][3]uint64 {
	m := make(map[string][3]uint64, len(t.Funcs))
	for _, lf := range t.Funcs {
		m[lf.Name] = [3]uint64{lf.Calls, lf.Incl, lf.Self}
	}
	return m
}

// assertTablesMatch requires the live table to agree exactly with the
// offline profile: same function set, same calls/incl/self, same totals.
func assertTablesMatch(t *testing.T, live LiveTable, p *Profile) {
	t.Helper()
	if live.TotalTicks != p.TotalTicks {
		t.Errorf("TotalTicks = %d, offline %d", live.TotalTicks, p.TotalTicks)
	}
	offline := p.Funcs()
	if len(live.Funcs) != len(offline) {
		t.Fatalf("function count = %d, offline %d", len(live.Funcs), len(offline))
	}
	for i := range offline {
		lf, of := live.Funcs[i], offline[i]
		if lf.Name != of.Name || lf.Calls != of.Calls || lf.Incl != of.Incl || lf.Self != of.Self {
			t.Errorf("func %d: live %+v, offline {%s %d %d %d}",
				i, lf, of.Name, of.Calls, of.Incl, of.Self)
		}
	}
}
