package monitor

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
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

func TestMonitorSamplesAndHistory(t *testing.T) {
	rig := newRig(t, 1<<16, "main", "work", "leaf", "work2")
	if err := rig.rec.Start(); err != nil {
		t.Fatal(err)
	}
	mon := New(rig.rec, WithInterval(time.Millisecond), WithHistorySize(8))
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

	hist := mon.History()
	if len(hist) == 0 || len(hist) > 8 {
		t.Fatalf("history length %d, want 1..8 (ring bound)", len(hist))
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].When.Before(hist[i-1].When) {
			t.Errorf("history not chronological at %d", i)
		}
		if hist[i].Entries < hist[i-1].Entries {
			t.Errorf("observed entries went backwards at %d", i)
		}
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

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestServerEndpoints(t *testing.T) {
	rig := newRig(t, 1<<16, "main", "work", "leaf", "work2")
	if err := rig.rec.Start(); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeRecorder(rig.rec, "127.0.0.1:0", WithInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rig.runNested(200)
	time.Sleep(10 * time.Millisecond)
	if err := rig.rec.Stop(); err != nil {
		t.Fatal(err)
	}

	metrics := fetch(t, srv.URL()+"/metrics")
	for _, w := range []string{
		`teeperf_entries_committed_total{session="main"} 1600`,
		`teeperf_entries_dropped_total{session="main"} 0`,
		"teeperf_log_fill_percent",
		"teeperf_counter_ticks_total",
		`teeperf_log_rotations_total{session="main"} 0`,
		"# TYPE teeperf_log_fill_percent gauge",
		"# HELP teeperf_entries_committed_total",
	} {
		if !strings.Contains(metrics, w) {
			t.Errorf("/metrics missing %q\n%s", w, metrics)
		}
	}

	var vars map[string]float64
	if err := json.Unmarshal([]byte(fetch(t, srv.URL()+"/vars")), &vars); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if vars["teeperf_entries_committed_total"] != 1600 {
		t.Errorf("/vars entries = %f", vars["teeperf_entries_committed_total"])
	}

	var prof struct {
		PID       uint64 `json:"pid"`
		Functions []struct {
			Name  string `json:"name"`
			Calls uint64 `json:"calls"`
		} `json:"functions"`
		Stats struct {
			Entries uint64 `json:"entries"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(fetch(t, srv.URL()+"/profile.json")), &prof); err != nil {
		t.Fatalf("/profile.json is not JSON: %v", err)
	}
	if prof.PID != 424242 {
		t.Errorf("profile pid = %d", prof.PID)
	}
	if len(prof.Functions) == 0 || prof.Stats.Entries != 1600 {
		t.Errorf("profile incomplete: %+v", prof)
	}

	var hist []Sample
	if err := json.Unmarshal([]byte(fetch(t, srv.URL()+"/history.json")), &hist); err != nil {
		t.Fatalf("/history.json is not JSON: %v", err)
	}
	if len(hist) == 0 {
		t.Error("history empty after sampling")
	}

	index := fetch(t, srv.URL()+"/")
	for _, w := range []string{"teeperf live monitor", "Hot methods", "<code>work2</code>", "http-equiv=\"refresh\""} {
		if !strings.Contains(index, w) {
			t.Errorf("index page missing %q", w)
		}
	}
	if body := fetch(t, srv.URL()+"/profile.json?top=2"); strings.Count(body, "\"name\"") != 2 {
		t.Errorf("profile.json?top=2 did not limit functions:\n%s", body)
	}

	resp, err := http.Get(srv.URL() + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nope status = %d, want 404", resp.StatusCode)
	}
}

func TestHandlerDirect(t *testing.T) {
	rig := newRig(t, 1<<12, "main", "work", "leaf", "work2")
	if err := rig.rec.Start(); err != nil {
		t.Fatal(err)
	}
	rig.runNested(10)
	if err := rig.rec.Stop(); err != nil {
		t.Fatal(err)
	}
	mon := New(rig.rec)
	rr := httptest.NewRecorder()
	mon.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `teeperf_entries_committed_total{session="main"} 80`) {
		t.Errorf("direct /metrics = %d\n%s", rr.Code, rr.Body.String())
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

// TestSessionLabelAndCheckpointMetrics covers the fleet-schema contract:
// every per-session series carries the configured session label, checkpoint
// gauges appear once checkpointing is configured, and /vars exposes the
// same values under bare names.
func TestSessionLabelAndCheckpointMetrics(t *testing.T) {
	rig := newRig(t, 1<<12, "main", "work", "leaf", "work2")
	if err := rig.rec.Start(); err != nil {
		t.Fatal(err)
	}
	rig.runNested(10)
	out := t.TempDir() + "/ckpt.teeperf"
	if err := rig.rec.StartCheckpoint(out, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := rig.rec.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if err := rig.rec.Stop(); err != nil {
		t.Fatal(err)
	}

	mon := New(rig.rec, WithSessionLabel("db-bench"))
	rr := httptest.NewRecorder()
	mon.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, w := range []string{
		`teeperf_entries_committed_total{session="db-bench"} 80`,
		`teeperf_checkpoint_passes_total{session="db-bench"}`,
		`teeperf_checkpoint_consecutive_failures{session="db-bench"} 0`,
		`teeperf_checkpoint_bytes_written_total{session="db-bench"}`,
		`teeperf_checkpoint_last_success_age_seconds{session="db-bench"}`,
		"# TYPE teeperf_checkpoint_passes_total counter",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q\n%s", w, body)
		}
	}

	rr = httptest.NewRecorder()
	mon.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/vars", nil))
	var vars map[string]float64
	if err := json.Unmarshal(rr.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if vars["teeperf_checkpoint_passes_total"] < 1 {
		t.Errorf("/vars checkpoint passes = %f, want >= 1", vars["teeperf_checkpoint_passes_total"])
	}
	if vars["teeperf_checkpoint_bytes_written_total"] <= 0 {
		t.Errorf("/vars checkpoint bytes = %f, want > 0", vars["teeperf_checkpoint_bytes_written_total"])
	}
	if age := vars["teeperf_checkpoint_last_success_age_seconds"]; age < 0 {
		t.Errorf("/vars checkpoint age = %f, want >= 0 after a pass", age)
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
