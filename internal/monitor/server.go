package monitor

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net"
	"net/http"
	"time"

	"teeperf/internal/recorder"
	"teeperf/internal/report"
)

// Handler returns the monitor's HTTP interface:
//
//	/              auto-refreshing HTML hot-methods page
//	/metrics       Prometheus text exposition of the recorder self-metrics
//	/vars          the same metrics as an expvar-style JSON document
//	/profile.json  live profile snapshot (stats + hot-methods table)
//	/history.json  the recorded sample trajectory (snapshot ring buffer)
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", m.serveIndex)
	mux.HandleFunc("/metrics", m.serveMetrics)
	mux.HandleFunc("/vars", m.serveVars)
	mux.HandleFunc("/profile.json", m.serveProfile)
	mux.HandleFunc("/history.json", m.serveHistory)
	return mux
}

// normPeriod maps the header's 0 ("unset") to the effective period 1, so
// the gauge always reports the weight actually applied to entries.
func normPeriod(p uint64) uint64 {
	if p == 0 {
		return 1
	}
	return p
}

// SessionMetrics builds the canonical per-session metric list from one
// sample — the shared schema between `teeperf serve` (one session) and the
// fleet agent (many sessions): identical names, distinguished only by the
// `session` label value.
func SessionMetrics(session string, s Sample, openFrames, funcs int) []Metric {
	lbl := SessionLabel(session)
	out := []Metric{
		{"teeperf_entries_committed_total", "Committed log entries observed across all segments.", "counter", lbl, float64(s.Entries)},
		{"teeperf_entries_dropped_total", "Probe events lost to log overflow.", "counter", lbl, float64(s.Dropped)},
		{"teeperf_counter_ticks_total", "Software/TSC counter value.", "counter", lbl, float64(s.CounterTicks)},
		{"teeperf_log_fill_percent", "Active log segment fill level (0-100).", "gauge", lbl, s.FillPercent},
		{"teeperf_log_capacity_entries", "Active log segment capacity.", "gauge", lbl, float64(s.Capacity)},
		{"teeperf_log_rotations_total", "Completed log segment rotations.", "counter", lbl, float64(s.Rotations)},
		{"teeperf_entries_per_second", "Entry commit rate over the last sample window.", "gauge", lbl, s.EntriesPerSec},
		{"teeperf_counter_ticks_per_second", "Counter tick rate over the last sample window.", "gauge", lbl, s.TicksPerSec},
		{"teeperf_drops_per_second", "Drop rate over the last sample window.", "gauge", lbl, s.DropsPerSec},
		{"teeperf_run_duration_seconds", "Wall-clock run duration.", "gauge", lbl, s.Elapsed.Seconds()},
		{"teeperf_open_frames", "Calls currently in flight (entered, not yet returned).", "gauge", lbl, float64(openFrames)},
		{"teeperf_profile_functions", "Distinct functions in the live profile.", "gauge", lbl, float64(funcs)},
		{"teeperf_probe_sample_period", "Probe sampling period (1 = every call pair recorded).", "gauge", lbl, float64(normPeriod(s.SamplePeriod))},
		{"teeperf_probe_batch_size", "Per-thread slot reservation batch size.", "gauge", lbl, float64(s.BatchSize)},
		{"teeperf_probe_masked_total", "Probe events suppressed by sampling or deny masks.", "counter", lbl, float64(s.Masked)},
	}
	// Sharded logs additionally break fill and drops down per shard, so a
	// skewed thread distribution (one shard saturated, the rest idle) is
	// visible where the aggregate gauges would hide it.
	for i, sh := range s.Shards {
		slbl := append(SessionLabel(session), Label{Key: "shard", Value: fmt.Sprintf("%d", i)})
		out = append(out,
			Metric{"teeperf_shard_fill_percent", "Per-shard log segment fill level (0-100).", "gauge", slbl, sh.FillPercent},
			Metric{"teeperf_shard_dropped_total", "Probe events lost to overflow of this shard's segment.", "counter", slbl, float64(sh.Dropped)},
		)
	}
	return out
}

// CheckpointMetrics builds the per-session checkpoint gauges from the
// recorder's CheckpointStats — the crash-consistency health signals. Before
// the first successful pass the age gauge reports -1.
func CheckpointMetrics(session string, cs recorder.CheckpointStats, now time.Time) []Metric {
	lbl := SessionLabel(session)
	age := -1.0
	if !cs.LastSuccess.IsZero() {
		age = now.Sub(cs.LastSuccess).Seconds()
	}
	return []Metric{
		{"teeperf_checkpoint_passes_total", "Completed checkpoint passes (reached the atomic rename).", "counter", lbl, float64(cs.Passes)},
		{"teeperf_checkpoint_consecutive_failures", "Failed checkpoint passes since the last clean one.", "gauge", lbl, float64(cs.ConsecutiveFailures)},
		{"teeperf_checkpoint_bytes_written_total", "Bundle bytes written by completed checkpoint passes.", "counter", lbl, float64(cs.BytesWritten)},
		{"teeperf_checkpoint_last_success_age_seconds", "Seconds since the last successful checkpoint pass (-1 before the first).", "gauge", lbl, age},
	}
}

func (m *Monitor) metrics() []Metric {
	m.mu.Lock()
	s := m.pollLocked(time.Now(), false)
	open := m.inc.OpenFrames()
	funcs := len(m.inc.Snapshot(0).Funcs)
	session := m.session
	m.mu.Unlock()

	out := SessionMetrics(session, s, open, funcs)
	// Checkpoint statistics ride along once checkpointing is configured;
	// before that the gauges would be meaningless zeros.
	if cs := m.rec.CheckpointStats(); cs.Configured {
		out = append(out, CheckpointMetrics(session, cs, time.Now())...)
	}
	return out
}

func (m *Monitor) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, m.metrics())
}

func (m *Monitor) serveVars(w http.ResponseWriter, r *http.Request) {
	vars := make(map[string]float64)
	for _, mt := range m.metrics() {
		// Bare names keep single-session /vars keys stable; the label only
		// disambiguates when several sessions share one exposition, which
		// /vars of a single-session monitor never has.
		vars[mt.Name] = mt.Value
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(vars)
}

// profileJSON is the /profile.json document.
type profileJSON struct {
	PID        uint64        `json:"pid"`
	Stats      statsJSON     `json:"stats"`
	TotalTicks uint64        `json:"total_ticks"`
	Calls      uint64        `json:"calls"`
	Unmatched  int           `json:"unmatched"`
	OpenFrames int           `json:"open_frames"`
	Threads    int           `json:"threads"`
	MaxDepth   int           `json:"max_depth"`
	Functions  []funcRowJSON `json:"functions"`
}

type statsJSON struct {
	Entries     uint64  `json:"entries"`
	Dropped     uint64  `json:"dropped"`
	Ticks       uint64  `json:"counter_ticks"`
	DurationMS  int64   `json:"duration_ms"`
	Capacity    int     `json:"capacity"`
	FillPercent float64 `json:"fill_percent"`
	Rotations   int     `json:"rotations"`
	DropRate    float64 `json:"drop_rate"`
}

type funcRowJSON struct {
	Name        string  `json:"name"`
	Calls       uint64  `json:"calls"`
	Self        uint64  `json:"self"`
	Incl        uint64  `json:"incl"`
	SelfPercent float64 `json:"self_percent"`
}

func (m *Monitor) serveProfile(w http.ResponseWriter, r *http.Request) {
	top := 0
	if v := r.URL.Query().Get("top"); v != "" {
		fmt.Sscanf(v, "%d", &top)
	}
	t := m.Table(top)
	s := m.Latest()
	st := m.rec.Stats()
	doc := profileJSON{
		PID: m.rec.Log().PID(),
		Stats: statsJSON{
			Entries:     s.Entries,
			Dropped:     st.Dropped,
			Ticks:       st.CounterTicks,
			DurationMS:  st.Duration.Milliseconds(),
			Capacity:    st.Capacity,
			FillPercent: st.FillPercent,
			Rotations:   st.Rotations,
			DropRate:    st.DropRate,
		},
		TotalTicks: t.TotalTicks,
		Calls:      t.Calls,
		Unmatched:  t.Unmatched,
		OpenFrames: t.OpenFrames,
		Threads:    t.Threads,
		MaxDepth:   t.MaxDepth,
	}
	for _, f := range t.Funcs {
		doc.Functions = append(doc.Functions, funcRowJSON{
			Name:        f.Name,
			Calls:       f.Calls,
			Self:        f.Self,
			Incl:        f.Incl,
			SelfPercent: t.SelfPercent(f),
		})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

func (m *Monitor) serveHistory(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(m.History())
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{{.Refresh}}">
<title>teeperf live monitor</title>
<style>
` + report.BaseCSS + `</style>
</head>
<body>
<h1>teeperf live monitor</h1>
<p class="summary">
  <span>elapsed <b>{{.Elapsed}}</b></span>
  <span>entries <b>{{.Entries}}</b> ({{printf "%.0f" .EntriesPerSec}}/s)</span>
  <span>dropped <b>{{.Dropped}}</b> ({{printf "%.1f" .DropsPerSec}}/s)</span>
  <span>log fill <b>{{printf "%.1f" .FillPercent}}%</b></span>
  <span>rotations <b>{{.Rotations}}</b></span>
  <span>counter <b>{{.CounterTicks}}</b> ticks</span>
</p>
<p class="summary">
  <span>threads <b>{{.Threads}}</b></span>
  <span>calls <b>{{.Calls}}</b></span>
  <span>in flight <b>{{.OpenFrames}}</b></span>
  <span>unmatched <b>{{.Unmatched}}</b></span>
</p>

<h2>Hot methods (live, by self time)</h2>
<table>
<tr><th>Function</th><th class="num">Calls</th><th class="num">Self</th><th class="num">Incl</th><th class="num">Self %</th></tr>
{{range .Funcs}}<tr><td><code>{{.Name}}</code></td><td class="num">{{.Calls}}</td><td class="num">{{.Self}}</td><td class="num">{{.Incl}}</td><td class="num">{{printf "%.2f" .SelfPercent}}%</td></tr>
{{end}}</table>

<p><small>auto-refreshes every {{.Refresh}}s — <a href="/metrics">/metrics</a> · <a href="/vars">/vars</a> · <a href="/profile.json">/profile.json</a> · <a href="/history.json">/history.json</a></small></p>
</body>
</html>
`))

type indexData struct {
	Refresh int
	Sample
	Threads    int
	Calls      uint64
	OpenFrames int
	Unmatched  int
	Funcs      []funcRowJSON
}

func (m *Monitor) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	t := m.Table(25)
	refresh := int(m.interval / time.Second)
	if refresh < 1 {
		refresh = 1
	}
	data := indexData{
		Refresh:    refresh,
		Sample:     m.Latest(),
		Threads:    t.Threads,
		Calls:      t.Calls,
		OpenFrames: t.OpenFrames,
		Unmatched:  t.Unmatched,
	}
	for _, f := range t.Funcs {
		data.Funcs = append(data.Funcs, funcRowJSON{
			Name:        f.Name,
			Calls:       f.Calls,
			Self:        f.Self,
			Incl:        f.Incl,
			SelfPercent: t.SelfPercent(f),
		})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = indexTemplate.Execute(w, data)
}

// Server is a running live-monitor HTTP endpoint.
type Server struct {
	mon      *Monitor
	ln       net.Listener
	srv      *http.Server
	ownedMon bool
}

// Serve starts serving m's Handler on addr (e.g. ":7070" or
// "127.0.0.1:0"). The caller keeps ownership of the monitor.
func Serve(m *Monitor, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: m.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &Server{mon: m, ln: ln, srv: srv}, nil
}

// ServeRecorder builds a monitor over rec, starts its sampling loop and
// serves it on addr — the one-call recorder serve hook. Close stops both
// the server and the monitor.
func ServeRecorder(rec *recorder.Recorder, addr string, opts ...Option) (*Server, error) {
	m := New(rec, opts...)
	m.Start()
	s, err := Serve(m, addr)
	if err != nil {
		m.Stop()
		return nil, err
	}
	s.ownedMon = true
	return s, nil
}

// Monitor returns the served monitor.
func (s *Server) Monitor() *Monitor { return s.mon }

// Addr returns the bound listen address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down (and stops the monitor if ServeRecorder
// created it).
func (s *Server) Close() error {
	err := s.srv.Close()
	if s.ownedMon {
		s.mon.Stop()
	}
	return err
}
