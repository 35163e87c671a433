package agent

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"teeperf/internal/monitor"
	"teeperf/internal/profilestore"
)

// Config parameterizes an Agent.
type Config struct {
	// Spool is a directory watched for *.shm mappings; every matching file
	// becomes a session named after its basename. Empty disables scanning
	// (sessions arrive only via Register).
	Spool string
	// Interval is the scrape-loop period (default 250ms).
	Interval time.Duration
	// ScrapeBudget is the per-session entry budget of one scrape; a session
	// exceeding it on two consecutive scrapes is degraded to sampled
	// scraping (default 1<<16).
	ScrapeBudget int
	// DegradedEvery is how often degraded sessions are still scraped: every
	// N-th cycle (default 4).
	DegradedEvery int
	// AutoThrottle upgrades back-pressure from a scrape-side remedy to a
	// recording-side one: when a session degrades, the agent opens a control
	// mapping over its shared file and pushes ThrottlePeriod into the
	// sampling-period header word, so the flooding tenant's probes stop
	// *recording* most events (not just the agent reading them). The
	// previous period is restored when the session recovers.
	AutoThrottle bool
	// ThrottlePeriod is the sampling period pushed by AutoThrottle
	// (default 8 — one call pair in eight recorded).
	ThrottlePeriod uint64
	// HistoryStore, when set, receives every dead session's drained log as
	// a durable segment at salvage time (segment ID <name>@<attach-gen>, so
	// re-registered mappings ingest separately and replays deduplicate).
	HistoryStore *profilestore.Store
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.ScrapeBudget <= 0 {
		c.ScrapeBudget = 1 << 16
	}
	if c.DegradedEvery < 2 {
		c.DegradedEvery = 4
	}
	if c.ThrottlePeriod == 0 {
		c.ThrottlePeriod = 8
	}
	return c
}

// scrapeBuckets are the upper bounds (seconds) of the scrape-duration
// histogram. An implicit +Inf bucket follows.
var scrapeBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5}

// Agent hosts a fleet of observed sessions: it discovers mappings, runs
// the shared scrape loop, and aggregates per-session accounting into
// fleet-wide metrics. All exported methods are safe for concurrent use.
type Agent struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	cycle    uint64

	// Self-observability: scrape-cycle latency histogram.
	bucketCounts []uint64
	durSum       float64
	durCount     uint64

	running bool
	stop    chan struct{}
	done    chan struct{}
}

// New creates an agent. Start launches its scrape loop; ScrapeOnce drives
// it manually (tests, `teeperf agent -once`).
func New(cfg Config) *Agent {
	return &Agent{
		cfg:          cfg.withDefaults(),
		sessions:     make(map[string]*Session),
		bucketCounts: make([]uint64, len(scrapeBuckets)+1),
	}
}

// SessionName derives the registry key for a mapping path: the basename
// with a trailing ".shm" stripped.
func SessionName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".shm")
}

// Register adds (or re-points) the session observing path and returns its
// name. Registering an existing name with a new path re-maps the session —
// the re-registration path of the lifecycle; with the same path it is a
// no-op. The mapping itself is established lazily by the next scrape, so
// registering a file whose header is still being written is safe.
func (a *Agent) Register(path string) string {
	name := SessionName(path)
	a.mu.Lock()
	defer a.mu.Unlock()
	if s, ok := a.sessions[name]; ok {
		// A hosted session keeps its name: a mapping that happens to share
		// it is not observed.
		if s.mon == nil && s.Path() != path {
			s.remap(a.cycle, path)
		}
		return name
	}
	a.sessions[name] = newSession(name, path)
	return name
}

// Host adds a session whose source is m, a monitor over a recorder in this
// process, rather than an observer mapping. The session is live from the
// start and never dies, salvages or throttles; each scrape advances m's
// rate window, so m must not also be Started. Hosting an existing name
// replaces that session.
func (a *Agent) Host(name string, m *monitor.Monitor) {
	s := newSession(name, "")
	s.mon = m
	a.mu.Lock()
	defer a.mu.Unlock()
	if old := a.sessions[name]; old != nil {
		old.close()
	}
	s.setStateLocked(a.cycle, StateLive, "hosted in-process recorder")
	a.sessions[name] = s
}

// Session returns the named session, or nil.
func (a *Agent) Session(name string) *Session {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sessions[name]
}

// Sessions returns every session's accounting, sorted by name.
func (a *Agent) Sessions() []Info {
	a.mu.Lock()
	list := make([]*Session, 0, len(a.sessions))
	for _, s := range a.sessions {
		list = append(list, s)
	}
	a.mu.Unlock()
	infos := make([]Info, 0, len(list))
	for _, s := range list {
		infos = append(infos, s.Snapshot())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// scanSpool registers every *.shm file currently in the spool directory.
// Scan errors are returned but non-fatal to the loop: a transiently
// unreadable spool just delays discovery.
func (a *Agent) scanSpool() error {
	if a.cfg.Spool == "" {
		return nil
	}
	ents, err := os.ReadDir(a.cfg.Spool)
	if err != nil {
		return fmt.Errorf("agent: scan spool: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".shm") {
			continue
		}
		a.Register(filepath.Join(a.cfg.Spool, e.Name()))
	}
	return nil
}

// ScrapeOnce runs one fleet cycle: spool scan, then one scrape of every
// session. It returns the total entries drained this cycle. Safe to call
// concurrently with a running loop (cycles serialize on the registry
// lock per session; the cycle counter is shared).
func (a *Agent) ScrapeOnce() int {
	start := time.Now()
	_ = a.scanSpool()

	a.mu.Lock()
	a.cycle++
	cycle := a.cycle
	list := make([]*Session, 0, len(a.sessions))
	for _, s := range a.sessions {
		list = append(list, s)
	}
	a.mu.Unlock()
	// Deterministic scrape order (name-sorted) so traces and tests don't
	// depend on map iteration.
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })

	total := 0
	for _, s := range list {
		total += s.scrape(cycle, a.cfg, start)
	}

	dur := time.Since(start).Seconds()
	a.mu.Lock()
	i := sort.SearchFloat64s(scrapeBuckets, dur)
	a.bucketCounts[i]++
	a.durSum += dur
	a.durCount++
	a.mu.Unlock()
	return total
}

// Start launches the background scrape loop. No-op when already running.
func (a *Agent) Start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running {
		return
	}
	a.running = true
	a.stop = make(chan struct{})
	a.done = make(chan struct{})
	go a.loop(a.stop, a.done)
}

func (a *Agent) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			a.ScrapeOnce()
		}
	}
}

// Stop halts the loop after a final cycle (so the fleet view covers
// everything committed) and is idempotent.
func (a *Agent) Stop() {
	a.mu.Lock()
	if !a.running {
		a.mu.Unlock()
		return
	}
	a.running = false
	stop, done := a.stop, a.done
	a.mu.Unlock()
	close(stop)
	<-done
	a.ScrapeOnce()
}

// Close stops the loop and releases every session's mapping.
func (a *Agent) Close() {
	a.Stop()
	a.mu.Lock()
	list := make([]*Session, 0, len(a.sessions))
	for _, s := range a.sessions {
		list = append(list, s)
	}
	a.mu.Unlock()
	for _, s := range list {
		s.close()
	}
}

// Metrics builds the fleet exposition: every session's series under the
// single-session schema (monitor.SessionMetrics — same names, different
// `session` label values), the agent's session-lifecycle series, and the
// fleet rollups. Sessions appear in name order so output is deterministic.
func (a *Agent) Metrics() []monitor.Metric {
	a.mu.Lock()
	cycle := a.cycle
	list := make([]*Session, 0, len(a.sessions))
	for _, s := range a.sessions {
		list = append(list, s)
	}
	a.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })

	var out []monitor.Metric
	var fleet struct {
		entries, dropped, salvaged uint64
		degraded                   int
		byState                    map[State]int
	}
	fleet.byState = make(map[State]int, len(States))

	for _, s := range list {
		s.mu.Lock()
		info, series := s.exportLocked()
		state := s.state
		s.mu.Unlock()
		out = append(out, series...)

		lbl := monitor.SessionLabel(info.Name)
		for _, st := range States {
			v := 0.0
			if st == state {
				v = 1
			}
			out = append(out, monitor.Metric{
				Name: "teeperf_session_state", Help: "Session lifecycle state (one-hot).", Kind: "gauge",
				Labels: append([]monitor.Label{{Key: "session", Value: info.Name}}, monitor.Label{Key: "state", Value: st.String()}),
				Value:  v,
			})
		}
		deg, thr := 0.0, 0.0
		if info.Degraded {
			deg = 1
		}
		if info.Throttled {
			thr = 1
		}
		out = append(out,
			monitor.Metric{Name: "teeperf_session_attach_generation", Help: "Attach generation of the observed mapping.", Kind: "gauge", Labels: lbl, Value: float64(info.AttachGen)},
			monitor.Metric{Name: "teeperf_session_degraded", Help: "1 while the session is back-pressure degraded to sampled scraping.", Kind: "gauge", Labels: lbl, Value: deg},
			monitor.Metric{Name: "teeperf_session_throttled", Help: "1 while the agent holds a pushed sampling period on this session.", Kind: "gauge", Labels: lbl, Value: thr},
			monitor.Metric{Name: "teeperf_session_scrapes_total", Help: "Scrapes performed on this session (skipped degraded cycles excluded).", Kind: "counter", Labels: lbl, Value: float64(info.Scrapes)},
			monitor.Metric{Name: "teeperf_session_salvaged_entries", Help: "Committed entries recovered by the salvage pass (0 before salvage).", Kind: "gauge", Labels: lbl, Value: float64(info.Salvaged)},
		)

		fleet.entries += info.Entries
		fleet.dropped += info.Dropped
		fleet.salvaged += info.Salvaged
		if info.Degraded {
			fleet.degraded++
		}
		fleet.byState[state]++
	}

	out = append(out,
		monitor.Metric{Name: "teeperf_fleet_sessions", Help: "Sessions known to the agent.", Kind: "gauge", Value: float64(len(list))},
		monitor.Metric{Name: "teeperf_fleet_entries_committed_total", Help: "Committed entries across the fleet.", Kind: "counter", Value: float64(fleet.entries)},
		monitor.Metric{Name: "teeperf_fleet_entries_dropped_total", Help: "Dropped probe events across the fleet.", Kind: "counter", Value: float64(fleet.dropped)},
		monitor.Metric{Name: "teeperf_fleet_salvaged_entries_total", Help: "Entries recovered by salvage passes across the fleet.", Kind: "counter", Value: float64(fleet.salvaged)},
		monitor.Metric{Name: "teeperf_fleet_degraded_sessions", Help: "Sessions currently degraded by back-pressure.", Kind: "gauge", Value: float64(fleet.degraded)},
		monitor.Metric{Name: "teeperf_agent_scrape_cycles_total", Help: "Completed fleet scrape cycles.", Kind: "counter", Value: float64(cycle)},
	)
	if a.cfg.HistoryStore != nil {
		out = append(out, monitor.StoreMetrics(a.cfg.HistoryStore.Stats())...)
	}
	for _, st := range States {
		out = append(out, monitor.Metric{
			Name: "teeperf_fleet_sessions_by_state", Help: "Sessions per lifecycle state.", Kind: "gauge",
			Labels: []monitor.Label{{Key: "state", Value: st.String()}},
			Value:  float64(fleet.byState[st]),
		})
	}
	return out
}

// scrapeHistogram snapshots the scrape-duration histogram for exposition.
func (a *Agent) scrapeHistogram() (buckets []float64, counts []uint64, sum float64, count uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	counts = make([]uint64, len(a.bucketCounts))
	copy(counts, a.bucketCounts)
	return scrapeBuckets, counts, a.durSum, a.durCount
}
