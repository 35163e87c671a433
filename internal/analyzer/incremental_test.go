package analyzer

import (
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
