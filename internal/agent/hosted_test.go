package agent

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"teeperf/internal/counter"
	"teeperf/internal/monitor"
	"teeperf/internal/recorder"
	"teeperf/internal/symtab"
)

// hostRig is an in-process recorder over a small registered program driven
// by probe hooks — the source of a hosted session. It runs on a heap log,
// so it needs no mmap support.
type hostRig struct {
	rec  *recorder.Recorder
	fns  map[string]uint64
	tick *counter.Virtual
}

func newHostRig(t *testing.T, capacity int) *hostRig {
	t.Helper()
	tab := symtab.New()
	fns := make(map[string]uint64)
	for i, n := range []string{"main", "work", "leaf", "work2"} {
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
	if err := rec.Start(); err != nil {
		t.Fatal(err)
	}
	return &hostRig{rec: rec, fns: fns, tick: tick}
}

// runNested performs `loops` executions of main{ work{ leaf{} } work2{} }
// on one registered thread: 8 entries per loop.
func (r *hostRig) runNested(loops int) {
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

func (r *hostRig) stop(t *testing.T) {
	t.Helper()
	if err := r.rec.Stop(); err != nil {
		t.Fatal(err)
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

func get(a *Agent, url string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
	return rr
}

// TestHostedServerEndpoints serves a hosted recorder over a real listener,
// the way `teeperf serve` does, and checks every endpoint reports it.
func TestHostedServerEndpoints(t *testing.T) {
	rig := newHostRig(t, 1<<16)
	a := New(Config{Interval: time.Millisecond})
	a.Host("main", monitor.New(rig.rec))
	srv, err := Serve(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rig.runNested(200)
	time.Sleep(10 * time.Millisecond)
	rig.stop(t)

	metrics := fetch(t, srv.URL()+"/metrics")
	for _, w := range []string{
		`teeperf_entries_committed_total{session="main"} 1600`,
		`teeperf_entries_dropped_total{session="main"} 0`,
		`teeperf_log_fill_percent{session="main"}`,
		`teeperf_counter_ticks_total{session="main"}`,
		`teeperf_log_rotations_total{session="main"} 0`,
		"# TYPE teeperf_log_fill_percent gauge",
		"# HELP teeperf_entries_committed_total",
		`teeperf_session_state{session="main",state="live"} 1`,
		"# TYPE teeperf_agent_scrape_duration_seconds histogram",
	} {
		if !strings.Contains(metrics, w) {
			t.Errorf("/metrics missing %q\n%s", w, metrics)
		}
	}

	var vars map[string]float64
	if err := json.Unmarshal([]byte(fetch(t, srv.URL()+"/vars")), &vars); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if got := vars[`teeperf_entries_committed_total{session="main"}`]; got != 1600 {
		t.Errorf("/vars entries = %f", got)
	}

	var prof struct {
		Session string `json:"session"`
		Info    Info   `json:"info"`
		Funcs   []struct {
			Name  string `json:"name"`
			Calls uint64 `json:"calls"`
		} `json:"functions"`
	}
	if err := json.Unmarshal([]byte(fetch(t, srv.URL()+"/profile.json?session=main")), &prof); err != nil {
		t.Fatalf("/profile.json is not JSON: %v", err)
	}
	if prof.Info.AppPID != 424242 {
		t.Errorf("profile pid = %d", prof.Info.AppPID)
	}
	if prof.Session != "main" || len(prof.Funcs) != 4 || prof.Info.Entries != 1600 {
		t.Errorf("profile incomplete: %+v", prof)
	}
	if body := fetch(t, srv.URL()+"/profile.json?session=main&top=2"); strings.Count(body, "\"self_percent\"") != 2 {
		t.Errorf("profile.json?top=2 did not limit functions:\n%s", body)
	}

	index := fetch(t, srv.URL()+"/")
	for _, w := range []string{"teeperf fleet agent", "<code>main</code>", "http-equiv=\"refresh\""} {
		if !strings.Contains(index, w) {
			t.Errorf("index page missing %q", w)
		}
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

// TestHostedHandlerDirect: the handler reads a hosted session fresh, with
// no scrape loop running and no scrape ever performed.
func TestHostedHandlerDirect(t *testing.T) {
	rig := newHostRig(t, 1<<12)
	rig.runNested(10)
	rig.stop(t)
	a := New(Config{})
	a.Host("main", monitor.New(rig.rec))
	rr := get(a, "/metrics")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `teeperf_entries_committed_total{session="main"} 80`) {
		t.Errorf("direct /metrics = %d\n%s", rr.Code, rr.Body.String())
	}
}

// TestHostedSessionLabelAndCheckpointMetrics covers the schema contract for
// a hosted session: every per-session series carries the hosted name as its
// session label, checkpoint gauges appear once checkpointing is configured,
// and /vars exposes the same values under series keys.
func TestHostedSessionLabelAndCheckpointMetrics(t *testing.T) {
	rig := newHostRig(t, 1<<12)
	rig.runNested(10)
	out := t.TempDir() + "/ckpt.teeperf"
	if err := rig.rec.StartCheckpoint(out, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := rig.rec.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	rig.stop(t)

	a := New(Config{})
	a.Host("db-bench", monitor.New(rig.rec))
	body := get(a, "/metrics").Body.String()
	for _, w := range []string{
		`teeperf_entries_committed_total{session="db-bench"} 80`,
		`teeperf_entries_dropped_total{session="db-bench"} 0`,
		`teeperf_log_fill_percent{session="db-bench"}`,
		`teeperf_counter_ticks_total{session="db-bench"}`,
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

	var vars map[string]float64
	if err := json.Unmarshal(get(a, "/vars").Body.Bytes(), &vars); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	key := func(name string) string { return name + `{session="db-bench"}` }
	if got := vars[key("teeperf_entries_committed_total")]; got != 80 {
		t.Errorf("/vars entries = %f, want 80", got)
	}
	if got := vars[key("teeperf_counter_ticks_total")]; got <= 0 {
		t.Errorf("/vars counter ticks = %f, want > 0", got)
	}
	if got := vars[key("teeperf_checkpoint_passes_total")]; got < 1 {
		t.Errorf("/vars checkpoint passes = %f, want >= 1", got)
	}
	if got := vars[key("teeperf_checkpoint_bytes_written_total")]; got <= 0 {
		t.Errorf("/vars checkpoint bytes = %f, want > 0", got)
	}
	if age := vars[key("teeperf_checkpoint_last_success_age_seconds")]; age < 0 {
		t.Errorf("/vars checkpoint age = %f, want >= 0 after a pass", age)
	}
}

// TestHostedSessionStaysLive: a hosted session starts live and stays live
// through manual scrapes, the background loop and Stop — it has no PID to
// lose and no file to salvage — and a spool mapping that shares its name is
// never observed in its place.
func TestHostedSessionStaysLive(t *testing.T) {
	spool := t.TempDir()
	for _, n := range []string{"main", "other"} {
		if err := os.WriteFile(filepath.Join(spool, n+".shm"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rig := newHostRig(t, 1<<12)
	a := New(Config{Spool: spool, Interval: time.Millisecond})
	defer a.Close()
	a.Host("main", monitor.New(rig.rec))

	rig.runNested(10)
	if got := a.ScrapeOnce(); got != 80 {
		t.Errorf("first scrape drained %d, want 80", got)
	}
	a.Start()
	rig.runNested(10)
	rig.stop(t)
	a.Stop()
	if got := a.ScrapeOnce(); got != 0 {
		t.Errorf("scrape after Stop's final cycle drained %d, want 0", got)
	}

	s := a.Session("main")
	info := s.Snapshot()
	if info.State != "live" || info.Path != "" || info.Entries != 160 || info.Degraded || info.Throttled {
		t.Errorf("hosted session = %+v, want live, pathless, 160 entries", info)
	}
	if info.Scrapes < 3 {
		t.Errorf("hosted session scraped %d times, want >= 3", info.Scrapes)
	}
	want := []TraceEvent{{Cycle: 0, Event: "discovered -> live (hosted in-process recorder)"}}
	if tr := s.Trace(); len(tr) != 1 || tr[0] != want[0] {
		t.Errorf("hosted trace = %+v, want %+v", tr, want)
	}
	if s.Salvage() != nil {
		t.Error("hosted session was salvaged")
	}
	// The spool scan still registers the other mapping.
	if o := a.Session("other"); o == nil || o.Path() != filepath.Join(spool, "other.shm") {
		t.Errorf("spool scan missed other.shm: %+v", o)
	}
	if body := get(a, "/metrics").Body.String(); !strings.Contains(body, `teeperf_session_state{session="main",state="live"} 1`) {
		t.Errorf("/metrics does not report the hosted session live:\n%s", body)
	}
}
