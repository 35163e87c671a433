// Package monitor implements live observation of a TEE-Perf recording in
// progress. The paper's recorder only persists the shared-memory log after
// the run; this package tails the log *while* probes are writing it — an
// incremental cursor reads committed entries, an incremental analyzer folds
// them into a live hot-methods table, and a sampler tracks recorder health
// (entries/s, drop rate, log fill, counter ticks/s, rotations) — so an
// operator sees the emerging profile and the recorder's headroom without
// waiting for the process to exit.
//
// The monitor is exposed two ways: a terminal top-N view (teeperf
// monitor), and a session hosted by the fleet agent (agent.Agent.Host),
// whose HTTP plane serves the Prometheus/JSON metrics and the live profile
// (teeperf serve, teeperf run -addr).
package monitor

import (
	"fmt"
	"io"
	"sync"
	"time"

	"teeperf/internal/analyzer"
	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// Sample is one point of the run's trajectory: cumulative totals plus the
// rates observed since the previous sample.
type Sample struct {
	// When is the sample instant.
	When time.Time `json:"-"`
	// Elapsed is the run duration at the sample instant. time.Duration
	// marshals as nanoseconds, so the JSON field says so.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Entries is the cumulative number of committed entries the monitor
	// has observed, across all rotated segments.
	Entries uint64 `json:"entries"`
	// Dropped is the cumulative drop count.
	Dropped uint64 `json:"dropped"`
	// CounterTicks is the counter value at the sample instant.
	CounterTicks uint64 `json:"counter_ticks"`
	// FillPercent is the active segment's fill level.
	FillPercent float64 `json:"fill_percent"`
	// Capacity is the active segment's capacity in entries.
	Capacity int `json:"capacity"`
	// Rotations counts completed log rotations.
	Rotations int `json:"rotations"`
	// EntriesPerSec, TicksPerSec and DropsPerSec are rates over the
	// window since the previous recorded sample.
	EntriesPerSec float64 `json:"entries_per_sec"`
	TicksPerSec   float64 `json:"ticks_per_sec"`
	DropsPerSec   float64 `json:"drops_per_sec"`
	// SamplePeriod is the probe sampling period in effect (1 = every call
	// pair recorded). Masked is the cumulative count of probe events
	// suppressed by sampling or deny masks, and BatchSize is the configured
	// per-thread reservation batch.
	SamplePeriod uint64 `json:"sample_period"`
	Masked       uint64 `json:"masked"`
	BatchSize    int    `json:"batch_size"`
	// Shards is the active segment's per-shard breakdown (one element per
	// shard, index = shard id). Omitted for single-shard logs, where it
	// would duplicate FillPercent/Dropped.
	Shards []ShardSample `json:"shards,omitempty"`
}

// ShardSample is one shard's fill and drop accounting inside a sample —
// the signal that tells a skewed thread-to-shard distribution (one hot
// shard dropping while others sit empty) apart from global overload.
type ShardSample struct {
	FillPercent float64 `json:"fill_percent"`
	Dropped     uint64  `json:"dropped"`
}

// ShardSamples converts a SegmentStats snapshot into the sample form.
// Single-shard logs return nil: their one shard is the whole log. Shared
// with the fleet agent, which builds Samples from observed mappings.
func ShardSamples(stats []shmlog.SegmentStat) []ShardSample {
	if len(stats) <= 1 {
		return nil
	}
	out := make([]ShardSample, len(stats))
	for i, st := range stats {
		fill := 0.0
		if st.Capacity > 0 {
			t := st.Tail
			if t > st.Capacity { // transient overshoot under overload
				t = st.Capacity
			}
			fill = float64(t) / float64(st.Capacity) * 100
		}
		out[i] = ShardSample{FillPercent: fill, Dropped: st.Dropped}
	}
	return out
}

// Option configures New.
type Option interface {
	apply(*Monitor)
}

type optionFunc func(*Monitor)

func (f optionFunc) apply(m *Monitor) { f(m) }

// WithInterval sets the sampling interval (default 250ms).
func WithInterval(d time.Duration) Option {
	return optionFunc(func(m *Monitor) {
		if d > 0 {
			m.interval = d
		}
	})
}

// retireGrace is how many polls a rotated-out segment's cursor is kept
// around: probes that loaded the log pointer just before the swap may still
// commit entries into the old segment shortly after it.
const retireGrace = 2

type retiredCursor struct {
	cur   *shmlog.Cursor
	polls int
}

// Monitor tails a recorder's shared-memory log concurrently with the run.
type Monitor struct {
	rec      *recorder.Recorder
	interval time.Duration

	// pendMu is a leaf lock shared with the recorder's rotation hook; it
	// must never be held while taking mu or calling into the recorder.
	pendMu  sync.Mutex
	pending []*shmlog.Log

	mu       sync.Mutex
	inc      *analyzer.Incremental
	tab      *symtab.Table // the recorder table inc resolves through
	cur      *shmlog.Cursor
	seen     map[*shmlog.Log]bool
	retired  []retiredCursor
	buf      []shmlog.Entry
	observed uint64
	latest   Sample
	lastPoll time.Time
	haveLast bool

	running bool
	stop    chan struct{}
	done    chan struct{}
}

// New creates a monitor over rec. The recorder may be started before or
// after; entries recorded before the monitor exists are still observed
// (the cursor starts at the head of the log).
func New(rec *recorder.Recorder, opts ...Option) *Monitor {
	m := &Monitor{
		rec:      rec,
		interval: 250 * time.Millisecond,
	}
	for _, opt := range opts {
		opt.apply(m)
	}
	m.tab = m.biased(rec.Table())
	m.inc = analyzer.NewIncremental(m.tab)
	m.seen = make(map[*shmlog.Log]bool)
	m.cur = m.adopt(rec.Log())
	// Rotated-out segments are handed to the monitor by the recorder, so
	// none is missed even when several rotations happen between polls.
	rec.OnRotate(func(old *shmlog.Log) {
		m.pendMu.Lock()
		m.pending = append(m.pending, old)
		m.pendMu.Unlock()
	})
	return m
}

// biased returns tab with the log's relocation anchor applied — the same
// anchor the offline analyzer uses, so live names match post-run names.
func (m *Monitor) biased(tab *symtab.Table) *symtab.Table {
	if addr := m.rec.Log().ProfilerAddr(); addr != 0 {
		tab.SetLoadBias(addr)
	}
	return tab
}

// adopt starts a cursor on log and remembers the segment so a late rotation
// notification for it is not mistaken for an unseen segment (which would
// re-read it from the start).
func (m *Monitor) adopt(log *shmlog.Log) *shmlog.Cursor {
	m.seen[log] = true
	return log.Cursor()
}

// Start launches the background sampling loop. It is a no-op if already
// running. A monitor hosted by an agent is never started: the agent's
// scrape loop calls Advance instead.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return
	}
	m.running = true
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go m.loop(m.stop, m.done)
}

func (m *Monitor) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(m.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			m.Advance()
		}
	}
}

// Stop halts the sampling loop and performs a final drain so the live
// table covers every committed entry. Idempotent.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	stop, done := m.stop, m.done
	m.mu.Unlock()
	close(stop)
	<-done
	m.Advance()
}

// Advance drains newly committed entries and closes the current rate
// window: the returned sample becomes Latest and the base of the next
// window's rates. The sampling loop calls it every interval; an agent
// hosting the monitor calls it once per scrape.
func (m *Monitor) Advance() Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pollLocked(time.Now(), true)
}

// Poll drains newly committed entries and returns a fresh sample without
// closing the rate window (on-demand reads, e.g. HTTP scrapes, should not
// shorten the time-spaced windows the rates are computed over).
func (m *Monitor) Poll() Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pollLocked(time.Now(), false)
}

// pollLocked drains cursors, updates the live analyzer and computes one
// sample; advance closes the rate window. Rate windows shorter than a
// millisecond reuse the previous rates rather than amplifying scheduling
// noise.
func (m *Monitor) pollLocked(now time.Time, advance bool) Sample {
	// Rotation: rotated-out segments arrive through the recorder hook in
	// rotation order. Drain each a final time before switching cursors, and
	// keep them on the retired list for a grace period to catch stragglers
	// that committed just after the swap.
	m.pendMu.Lock()
	pending := m.pending
	m.pending = nil
	m.pendMu.Unlock()
	// A hosting recorder swaps the application's table in once its side
	// file appears (Recorder.SetTable); follow it so the live table names
	// functions instead of serving address placeholders.
	if tab := m.rec.Table(); tab != m.tab {
		m.tab = m.biased(tab)
		m.inc.SetTable(m.tab)
	}
	for _, old := range pending {
		switch {
		case m.cur != nil && old == m.cur.Log():
			m.drainLocked(m.cur)
			m.retired = append(m.retired, retiredCursor{cur: m.cur})
			m.cur = nil
		case !m.seen[old]:
			// The segment came and went entirely between two polls.
			c := m.adopt(old)
			m.drainLocked(c)
			m.retired = append(m.retired, retiredCursor{cur: c})
		}
	}
	current := m.rec.Log()
	if m.cur == nil || m.cur.Log() != current {
		if m.cur != nil {
			// Rotation observed via Log() before its hook notification was
			// processed; the pending entry arrives next poll and is skipped
			// because the segment is already in seen.
			m.drainLocked(m.cur)
			m.retired = append(m.retired, retiredCursor{cur: m.cur})
		}
		m.cur = m.adopt(current)
	}
	kept := m.retired[:0]
	for _, rc := range m.retired {
		m.drainLocked(rc.cur)
		rc.polls++
		if rc.polls < retireGrace {
			kept = append(kept, rc)
		}
	}
	m.retired = kept
	m.drainLocked(m.cur)

	st := m.rec.Stats()
	// A live throttle (sample period pushed through the shared header)
	// changes the weight of entries recorded after it; refreshing the
	// incremental analyzer's period each poll keeps the live table's
	// scaling in step with the recorder's.
	m.inc.SetSamplePeriod(st.SamplePeriod)
	s := Sample{
		When:         now,
		Elapsed:      st.Duration,
		Entries:      m.observed,
		Dropped:      st.Dropped,
		CounterTicks: st.CounterTicks,
		FillPercent:  st.FillPercent,
		Capacity:     st.Capacity,
		Rotations:    st.Rotations,
		SamplePeriod: st.SamplePeriod,
		Masked:       st.Masked,
		BatchSize:    st.BatchSize,
		Shards:       ShardSamples(current.SegmentStats()),
	}
	if m.haveLast {
		dt := now.Sub(m.lastPoll).Seconds()
		if dt >= 0.001 {
			prev := m.latest
			s.EntriesPerSec = float64(s.Entries-prev.Entries) / dt
			s.TicksPerSec = float64(s.CounterTicks-prev.CounterTicks) / dt
			s.DropsPerSec = float64(s.Dropped-prev.Dropped) / dt
		} else {
			s.EntriesPerSec = m.latest.EntriesPerSec
			s.TicksPerSec = m.latest.TicksPerSec
			s.DropsPerSec = m.latest.DropsPerSec
		}
	}
	if advance || !m.haveLast {
		m.lastPoll = now
		m.latest = s
		m.haveLast = true
	}
	return s
}

func (m *Monitor) drainLocked(c *shmlog.Cursor) {
	m.buf = c.Next(m.buf[:0])
	m.inc.FeedAll(m.buf)
	m.observed += uint64(len(m.buf))
}

// Latest returns the most recent sample (zero before the first poll).
func (m *Monitor) Latest() Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.latest
}

// Table drains pending entries and returns the live hot-methods table. A
// top of 0 returns every function.
func (m *Monitor) Table(top int) analyzer.LiveTable {
	_, t := m.Snapshot(top)
	return t
}

// Snapshot is Poll and Table under one lock: a fresh sample and the live
// table folded from exactly the entries the sample counts.
func (m *Monitor) Snapshot(top int) (Sample, analyzer.LiveTable) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pollLocked(time.Now(), false), m.inc.Snapshot(top)
}

// Recorder exposes the observed recorder.
func (m *Monitor) Recorder() *recorder.Recorder { return m.rec }

// Interval returns the sampling interval.
func (m *Monitor) Interval() time.Duration { return m.interval }

// WriteTop renders the live view as text: one status line followed by the
// top-n hot methods. It is the body of the terminal monitor's refresh.
func (m *Monitor) WriteTop(w io.Writer, n int) error {
	s, t := m.Snapshot(n)
	if _, err := fmt.Fprintf(w,
		"live %s: %d entries (%.0f/s), %d dropped (%.0f/s), fill %.1f%%, %d rotations, %d ticks\n",
		s.Elapsed.Round(time.Millisecond), s.Entries, s.EntriesPerSec,
		s.Dropped, s.DropsPerSec, s.FillPercent, s.Rotations, s.CounterTicks); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%d threads, %d calls, %d frames in flight, %d unmatched\n\n",
		t.Threads, t.Calls, t.OpenFrames, t.Unmatched); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-44s %12s %14s %14s %7s\n",
		"FUNCTION", "CALLS", "SELF", "INCL", "SELF%"); err != nil {
		return err
	}
	for _, f := range t.Funcs {
		name := f.Name
		if len(name) > 44 {
			name = name[:41] + "..."
		}
		if _, err := fmt.Fprintf(w, "%-44s %12d %14d %14d %6.2f%%\n",
			name, f.Calls, f.Self, f.Incl, t.SelfPercent(f)); err != nil {
			return err
		}
	}
	return nil
}
