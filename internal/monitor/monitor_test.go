package monitor

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"teeperf/internal/analyzer"
	"teeperf/internal/counter"
	"teeperf/internal/recorder"
	"teeperf/internal/symtab"
)

// testRig is a recorder with a small registered program driven by probe
// hooks, the in-process equivalent of an instrumented workload.
type testRig struct {
	rec  *recorder.Recorder
	tab  *symtab.Table
	fns  map[string]uint64
	tick *counter.Virtual
}

func newRig(t *testing.T, capacity int, names ...string) *testRig {
	t.Helper()
	tab := symtab.New()
	fns := make(map[string]uint64, len(names))
	for i, n := range names {
		addr, err := tab.Register(n, 16, "rig.go", i+1)
		if err != nil {
			t.Fatal(err)
		}
		fns[n] = addr
	}
	tick := counter.NewVirtual(1)
	rec, err := recorder.New(tab,
		recorder.WithCapacity(capacity),
		recorder.WithCounterSource(tick),
		recorder.WithPID(424242),
	)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{rec: rec, tab: tab, fns: fns, tick: tick}
}

// runNested performs `loops` executions of main{ work{ leaf{} } work2{} }
// on one registered thread.
func (r *testRig) runNested(loops int) {
	th := r.rec.Thread()
	for i := 0; i < loops; i++ {
		th.Enter(r.fns["main"])
		th.Enter(r.fns["work"])
		th.Enter(r.fns["leaf"])
		r.tick.Advance(3)
		th.Exit(r.fns["leaf"])
		th.Exit(r.fns["work"])
		th.Enter(r.fns["work2"])
		r.tick.Advance(7)
		th.Exit(r.fns["work2"])
		th.Exit(r.fns["main"])
	}
}

// TestLiveConvergesToOffline is the acceptance test: a monitor tailing the
// log while writer goroutines run must converge to the offline analyzer's
// result for the same run — same top-5 hot methods, self time within 1%.
func TestLiveConvergesToOffline(t *testing.T) {
	rig := newRig(t, 1<<18, "main", "work", "leaf", "work2", "other")
	if err := rig.rec.Start(); err != nil {
		t.Fatal(err)
	}
	mon := New(rig.rec, WithInterval(2*time.Millisecond))
	mon.Start()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rig.runNested(2000)
		}()
	}
	// A fourth thread with a different shape, left partially open.
	th := rig.rec.Thread()
	th.Enter(rig.fns["other"])
	rig.tick.Advance(100)
	wg.Wait()
	th.Exit(rig.fns["other"])

	if err := rig.rec.Stop(); err != nil {
		t.Fatal(err)
	}
	mon.Stop() // final drain

	live := mon.Table(0)
	offline, err := analyzer.Analyze(rig.rec.Log(), rig.tab)
	if err != nil {
		t.Fatal(err)
	}

	if live.Entries != rig.rec.Log().Len() {
		t.Fatalf("monitor observed %d entries, log has %d", live.Entries, rig.rec.Log().Len())
	}
	offFuncs := offline.Funcs()
	n := 5
	if n > len(offFuncs) {
		n = len(offFuncs)
	}
	if len(live.Funcs) < n {
		t.Fatalf("live table has %d functions, offline %d", len(live.Funcs), len(offFuncs))
	}
	for i := 0; i < n; i++ {
		lf, of := live.Funcs[i], offFuncs[i]
		if lf.Name != of.Name {
			t.Errorf("top-%d: live %q, offline %q", i+1, lf.Name, of.Name)
			continue
		}
		if of.Self == 0 {
			if lf.Self != 0 {
				t.Errorf("%s: live self %d, offline 0", lf.Name, lf.Self)
			}
			continue
		}
		rel := math.Abs(float64(lf.Self)-float64(of.Self)) / float64(of.Self)
		if rel > 0.01 {
			t.Errorf("%s: live self %d vs offline %d (%.2f%% off)", lf.Name, lf.Self, of.Self, 100*rel)
		}
	}
	if live.TotalTicks != offline.TotalTicks {
		t.Errorf("TotalTicks: live %d, offline %d", live.TotalTicks, offline.TotalTicks)
	}
}

// TestMonitorSamples: the sampling loop's samples carry the recorder's
// totals, and only Advance (which the loop calls) closes the rate window —
// an on-demand Poll leaves Latest in place.
func TestMonitorSamples(t *testing.T) {
	rig := newRig(t, 1<<16, "main", "work", "leaf", "work2")
	if err := rig.rec.Start(); err != nil {
		t.Fatal(err)
	}
	mon := New(rig.rec, WithInterval(time.Millisecond))
	mon.Start()
	rig.runNested(500)
	time.Sleep(25 * time.Millisecond)
	rig.runNested(500)
	if err := rig.rec.Stop(); err != nil {
		t.Fatal(err)
	}
	mon.Stop()

	s := mon.Latest()
	if s.Entries != 8*1000 {
		t.Errorf("Latest().Entries = %d, want 8000", s.Entries)
	}
	if s.Capacity != 1<<16 {
		t.Errorf("Capacity = %d", s.Capacity)
	}
	if s.FillPercent <= 0 {
		t.Errorf("FillPercent = %f", s.FillPercent)
	}
	if s.CounterTicks == 0 {
		t.Error("CounterTicks = 0")
	}

	if p := mon.Poll(); p.Entries != s.Entries || !mon.Latest().When.Equal(s.When) {
		t.Errorf("Poll moved the rate window: latest %v, was %v", mon.Latest().When, s.When)
	}
	time.Sleep(2 * time.Millisecond) // windows under 1ms reuse the old rates
	next := mon.Advance()
	if next.When.Before(s.When) || !mon.Latest().When.Equal(next.When) {
		t.Errorf("Advance did not close the window: latest %v, advanced %v", mon.Latest().When, next.When)
	}
	if next.Entries != s.Entries || next.EntriesPerSec != 0 {
		t.Errorf("idle window: %d entries at %.0f/s, want %d at 0/s", next.Entries, next.EntriesPerSec, s.Entries)
	}
}

func TestMonitorAcrossRotation(t *testing.T) {
	rig := newRig(t, 1<<16, "main", "work", "leaf", "work2")
	if err := rig.rec.Start(); err != nil {
		t.Fatal(err)
	}
	mon := New(rig.rec, WithInterval(time.Hour)) // poll manually
	rig.runNested(100)
	mon.Poll()
	if _, err := rig.rec.Rotate(); err != nil {
		t.Fatal(err)
	}
	rig.runNested(100)
	if _, err := rig.rec.Rotate(); err != nil {
		t.Fatal(err)
	}
	rig.runNested(100)
	if err := rig.rec.Stop(); err != nil {
		t.Fatal(err)
	}
	s := mon.Poll()
	if s.Rotations != 2 {
		t.Errorf("Rotations = %d, want 2", s.Rotations)
	}
	if want := uint64(300 * 8); s.Entries != want {
		t.Errorf("Entries across rotations = %d, want %d", s.Entries, want)
	}
	table := mon.Table(0)
	if table.Entries != 300*8 {
		t.Errorf("live table folded %d entries, want %d", table.Entries, 300*8)
	}
}

func TestWriteTop(t *testing.T) {
	rig := newRig(t, 1<<12, "main", "work", "leaf", "work2")
	if err := rig.rec.Start(); err != nil {
		t.Fatal(err)
	}
	rig.runNested(50)
	if err := rig.rec.Stop(); err != nil {
		t.Fatal(err)
	}
	mon := New(rig.rec)
	var b strings.Builder
	if err := mon.WriteTop(&b, 3); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{"FUNCTION", "SELF%", "work2", "live"} {
		if !strings.Contains(out, w) {
			t.Errorf("WriteTop missing %q:\n%s", w, out)
		}
	}
	// top 3 of 4 functions: header+status lines plus exactly 3 rows
	if got := strings.Count(out, "\n"); got != 7 {
		t.Errorf("WriteTop line count = %d:\n%s", got, out)
	}
}

func TestMonitorStopIdempotent(t *testing.T) {
	rig := newRig(t, 1<<12, "main", "work", "leaf", "work2")
	if err := rig.rec.Start(); err != nil {
		t.Fatal(err)
	}
	mon := New(rig.rec, WithInterval(time.Millisecond))
	mon.Start()
	mon.Start() // no-op
	mon.Stop()
	mon.Stop() // no-op
	if err := rig.rec.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestMonitorFollowsSetTable: a hosting recorder starts on an empty table
// and swaps the application's table in once its side file appears; the
// live table must then name the application's functions.
func TestMonitorFollowsSetTable(t *testing.T) {
	tick := counter.NewVirtual(1)
	rec, err := recorder.New(symtab.New(),
		recorder.WithCapacity(1<<8),
		recorder.WithCounterSource(tick),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Start(); err != nil {
		t.Fatal(err)
	}
	mon := New(rec)

	app := symtab.New()
	fn, err := app.Register("appfn", 16, "app.go", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec.SetTable(app)
	th := rec.Thread()
	th.Enter(fn)
	tick.Advance(5)
	th.Exit(fn)
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}

	live := mon.Table(0)
	if len(live.Funcs) != 1 || live.Funcs[0].Name != "appfn" {
		t.Fatalf("live funcs = %+v, want one named appfn", live.Funcs)
	}
}
