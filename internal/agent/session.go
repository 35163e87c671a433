// Package agent implements the fleet observability plane: one daemon
// hosting many concurrent shared-memory profiling sessions. Where the
// monitor package observes the single recorder living in its own process,
// the agent observes *other* processes' recordings from the outside — it
// discovers .shm mappings in a spool directory (or accepts explicit
// registrations), attaches to each with a read-only observer mapping
// (shmlog.ObserveFile, invisible to the app/recorder handshake), tails
// every session's log with an incremental cursor, and exposes the whole
// fleet through one Prometheus/HTML/JSON endpoint set.
//
// Sessions move through a lifecycle state machine:
//
//	discovered → attached → live → dead → salvaged
//
// discovered: the spool file exists but could not be mapped yet (the
// creator may still be writing the header). attached: mapped and scraped,
// but application liveness is unknown (no PID stamped, or the platform
// cannot probe PIDs). live: the stamped application PID answers a liveness
// probe. dead: the PID stopped answering — the session gets one final
// cursor drain and a raw-file salvage pass (shmlog.ReadLenient), then
// rests in salvaged with its recovery report attached. A session may also
// re-register (same name, new file): the agent re-maps it and the attach
// generation gauge moves.
//
// A hosted session (Agent.Host) is the in-process exception: its source is
// a monitor.Monitor tailing a recorder in the agent's own process, so it
// has no file to map, salvage or throttle. It starts live and stays live;
// each scrape advances the monitor's rate window. `teeperf serve`,
// `teeperf run -addr` and the facade's ServeMonitor all serve their
// recorder this way, through the same HTTP plane as the fleet.
package agent

import (
	"fmt"
	"os"
	"sync"
	"time"

	"teeperf/internal/analyzer"
	"teeperf/internal/monitor"
	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// State is a session's position in the lifecycle state machine.
type State int

const (
	// StateDiscovered: the spool file exists, mapping not yet succeeded.
	StateDiscovered State = iota + 1
	// StateAttached: mapped and scraped; application liveness unknown.
	StateAttached
	// StateLive: the stamped application PID answers liveness probes.
	StateLive
	// StateDead: the PID stopped answering; salvage is about to run.
	StateDead
	// StateSalvaged: terminal — final drain and raw-file recovery done.
	StateSalvaged
)

var stateNames = map[State]string{
	StateDiscovered: "discovered",
	StateAttached:   "attached",
	StateLive:       "live",
	StateDead:       "dead",
	StateSalvaged:   "salvaged",
}

// States lists every lifecycle state in order (for one-hot metric export).
var States = []State{StateDiscovered, StateAttached, StateLive, StateDead, StateSalvaged}

func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// TraceEvent is one entry of a session's lifecycle trace ring: what
// happened, on which scrape cycle. Cycles rather than wall-clock times keep
// traces deterministic for golden tests.
type TraceEvent struct {
	Cycle uint64 `json:"cycle"`
	Event string `json:"event"`
}

// traceCap bounds each session's trace ring.
const traceCap = 256

// Session is one observed recording: an observer mapping over a shared
// log, an incremental analyzer folding its committed entries into a live
// profile, and the lifecycle/back-pressure accounting around them.
// All methods are guarded by mu; the agent's scrape loop and the HTTP
// handlers may touch a session concurrently.
type Session struct {
	mu sync.Mutex

	name string
	path string
	mon  *monitor.Monitor // set for hosted sessions, which have no path

	state State
	log   *shmlog.Log // nil while discovered
	cur   *shmlog.Cursor
	tab   *symtab.Table
	inc   *analyzer.Incremental
	syms  *recorder.SymsLoader
	buf   []shmlog.Entry

	entries   uint64 // committed entries drained so far
	appPID    uint64 // stamped application PID (0 until the app attaches)
	attachGen uint64
	scrapes   uint64 // scrapes actually performed (not skipped)

	salvage    *shmlog.RecoveryReport // set once salvaged
	historySeg string                 // history-store segment ID, once ingested

	// Back-pressure: a session that floods the agent (drains more than
	// budget entries per scrape, twice in a row) is degraded to sampled
	// scraping — only every degradedEvery-th cycle — until a performed
	// scrape comes back under half the budget.
	overBudget int
	degraded   bool

	// Auto-throttle: with Config.AutoThrottle, degradation also pushes a
	// sampling period into the session's shared header through a writable
	// control mapping (ctl), live-throttling the tenant's *recording*;
	// prevPeriod is what recovery restores.
	ctl        *shmlog.Log
	throttled  bool
	prevPeriod uint64

	// lastEntries/lastScrape feed the per-session rate gauges.
	lastEntries uint64
	lastScrape  time.Time
	entriesRate float64

	trace []TraceEvent
}

func newSession(name, path string) *Session {
	s := &Session{name: name, path: path, state: StateDiscovered}
	return s
}

// Name returns the session's registry key (spool basename minus ".shm").
func (s *Session) Name() string { return s.name }

// Path returns the observed mapping path ("" for a hosted session).
func (s *Session) Path() string { return s.path }

// State returns the current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Info is a session's externally visible accounting, as served by
// /sessions and folded into the fleet metrics.
type Info struct {
	Name      string  `json:"name"`
	Path      string  `json:"path"`
	State     string  `json:"state"`
	Entries   uint64  `json:"entries"`
	Dropped   uint64  `json:"dropped"`
	Capacity  int     `json:"capacity"`
	FillPct   float64 `json:"fill_percent"`
	AppPID    uint64  `json:"app_pid"`
	AttachGen uint64  `json:"attach_gen"`
	Degraded  bool    `json:"degraded"`
	Throttled bool    `json:"throttled"`
	Scrapes   uint64  `json:"scrapes"`
	Salvaged  uint64  `json:"salvaged_entries"`
	Rate      float64 `json:"entries_per_second"`
	Functions int     `json:"functions"`
	// HistorySegment is the history-store segment ID this session's entries
	// were persisted under at salvage (empty before, or without a store).
	HistorySegment string `json:"history_segment,omitempty"`
}

// Snapshot returns the session's current accounting.
func (s *Session) Snapshot() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Session) snapshotLocked() Info {
	if s.mon != nil {
		return s.hostedInfo(s.mon.Snapshot(0))
	}
	info := Info{
		Name:      s.name,
		Path:      s.path,
		State:     s.state.String(),
		Entries:   s.entries,
		AppPID:    s.appPID,
		AttachGen: s.attachGen,
		Degraded:  s.degraded,
		Throttled: s.throttled,
		Scrapes:   s.scrapes,
		Rate:      s.entriesRate,
	}
	if s.log != nil {
		info.Dropped = s.log.Dropped()
		info.Capacity = s.log.Capacity()
		if info.Capacity > 0 {
			info.FillPct = 100 * float64(s.log.Len()) / float64(info.Capacity)
		}
	}
	if s.inc != nil {
		info.Functions = len(s.inc.Snapshot(0).Funcs)
	}
	if s.salvage != nil {
		info.Salvaged = uint64(s.salvage.EntriesSalvaged)
	}
	info.HistorySegment = s.historySeg
	return info
}

// Salvage returns the recovery report once the session reached salvaged
// (nil before).
func (s *Session) Salvage() *shmlog.RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.salvage
}

// Trace returns a copy of the lifecycle trace ring, oldest first.
func (s *Session) Trace() []TraceEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceEvent, len(s.trace))
	copy(out, s.trace)
	return out
}

// Table returns the live hot-methods table: as of the last scrape for an
// observed mapping (the scrape loop owns the cursor), freshly polled for a
// hosted monitor.
func (s *Session) Table(top int) analyzer.LiveTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mon != nil {
		return s.mon.Table(top)
	}
	if s.inc == nil {
		return analyzer.LiveTable{}
	}
	return s.inc.Snapshot(top)
}

func (s *Session) traceLocked(cycle uint64, format string, args ...any) {
	if len(s.trace) == traceCap {
		copy(s.trace, s.trace[1:])
		s.trace = s.trace[:traceCap-1]
	}
	s.trace = append(s.trace, TraceEvent{Cycle: cycle, Event: fmt.Sprintf(format, args...)})
}

func (s *Session) setStateLocked(cycle uint64, next State, why string) {
	if s.state == next {
		return
	}
	s.traceLocked(cycle, "%s -> %s (%s)", s.state, next, why)
	s.state = next
}

// scrape advances the session one observation cycle: attach if not yet
// mapped, probe application liveness, drain newly committed entries into
// the incremental analyzer, adopt a republished symbol side file, and run
// the back-pressure accounting (with the optional recording-side throttle).
// It returns the number of entries drained. cfg is the agent's (defaulted)
// config; now is the scrape instant (for rate computation only — lifecycle
// decisions never read it).
func (s *Session) scrape(cycle uint64, cfg Config, now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.mon != nil {
		// Hosted: the monitor drains the recorder's segments itself; the
		// scrape closes its rate window. No liveness, salvage or
		// back-pressure applies to the agent's own process.
		smp := s.mon.Advance()
		drained := int(smp.Entries - s.entries)
		s.entries = smp.Entries
		s.scrapes++
		return drained
	}

	switch s.state {
	case StateSalvaged:
		return 0
	case StateDiscovered:
		if !s.attachLocked(cycle) {
			return 0
		}
	}

	// Degraded sessions are sampled: only every DegradedEvery-th cycle
	// touches the mapping, so one flooding tenant cannot starve the rest
	// of the fleet's scrape interval.
	if s.degraded && cycle%uint64(cfg.DegradedEvery) != 0 {
		return 0
	}

	// Liveness: the application stamps its PID into the header when it
	// attaches. Before that (appPID 0) liveness is unknowable and the
	// session stays attached. A PID that stops answering is dead exactly
	// once — salvage runs and the state machine rests.
	if pid := s.log.PID(); pid != 0 {
		s.appPID = pid
		if alive, known := pidAlive(pid); known {
			if alive {
				s.setStateLocked(cycle, StateLive, fmt.Sprintf("pid %d alive", pid))
			} else {
				s.setStateLocked(cycle, StateDead, fmt.Sprintf("pid %d gone", pid))
				s.salvageLocked(cycle, cfg)
				return 0
			}
		}
	}
	s.attachGen = s.log.AttachGen()

	drained := s.drainLocked()
	s.scrapes++
	if tab, ok := s.syms.Load(); ok {
		s.adoptTableLocked(cycle, tab)
	}

	// Rates for the dashboard; guarded so sub-millisecond windows don't
	// amplify scheduling noise.
	if !s.lastScrape.IsZero() {
		if dt := now.Sub(s.lastScrape).Seconds(); dt >= 0.001 {
			s.entriesRate = float64(s.entries-s.lastEntries) / dt
		}
	}
	s.lastScrape = now
	s.lastEntries = s.entries

	// Back-pressure bookkeeping.
	switch {
	case drained > cfg.ScrapeBudget:
		s.overBudget++
		if !s.degraded && s.overBudget >= 2 {
			s.degraded = true
			s.traceLocked(cycle, "degraded: %d entries > budget %d twice", drained, cfg.ScrapeBudget)
			if cfg.AutoThrottle {
				s.throttleLocked(cycle, cfg.ThrottlePeriod)
			}
		}
	case drained < cfg.ScrapeBudget/2:
		s.overBudget = 0
		if s.degraded {
			s.degraded = false
			s.traceLocked(cycle, "recovered: %d entries < half budget", drained)
			s.unthrottleLocked(cycle)
		}
	default:
		s.overBudget = 0
	}
	return drained
}

// hostedInfo is a hosted session's accounting from one monitor poll.
func (s *Session) hostedInfo(smp monitor.Sample, t analyzer.LiveTable) Info {
	return Info{
		Name:      s.name,
		State:     s.state.String(),
		Entries:   smp.Entries,
		Dropped:   smp.Dropped,
		Capacity:  smp.Capacity,
		FillPct:   smp.FillPercent,
		AppPID:    s.mon.Recorder().Log().PID(),
		Scrapes:   s.scrapes,
		Rate:      smp.EntriesPerSec,
		Functions: len(t.Funcs),
	}
}

// exportLocked snapshots the session's accounting and builds its series
// under the single-session schema (monitor.SessionMetrics) from that same
// snapshot. A hosted session is read with one fresh monitor poll and adds
// the checkpoint gauges once its recorder has checkpointing configured;
// before that they would be meaningless zeros.
func (s *Session) exportLocked() (Info, []monitor.Metric) {
	if s.mon != nil {
		smp, t := s.mon.Snapshot(0)
		info := s.hostedInfo(smp, t)
		out := monitor.SessionMetrics(s.name, smp, t.OpenFrames, len(t.Funcs))
		if cs := s.mon.Recorder().CheckpointStats(); cs.Configured {
			out = append(out, monitor.CheckpointMetrics(s.name, cs, time.Now())...)
		}
		return info, out
	}
	info := s.snapshotLocked()
	sample := monitor.Sample{
		Entries:       info.Entries,
		Dropped:       info.Dropped,
		FillPercent:   info.FillPct,
		Capacity:      info.Capacity,
		EntriesPerSec: info.Rate,
	}
	open := 0
	if s.log != nil {
		sample.CounterTicks = s.log.LoadCounter()
		sample.Shards = monitor.ShardSamples(s.log.SegmentStats())
		sample.SamplePeriod = s.log.SamplePeriod()
		sample.Masked = s.log.Masked()
		// The header holds 0 unless a probe set a batch above the default
		// of 1 (see probe.WithBatch).
		sample.BatchSize = int(max(s.log.BatchSize(), 1))
	}
	if s.inc != nil {
		open = s.inc.OpenFrames()
	}
	return info, monitor.SessionMetrics(info.Name, sample, open, info.Functions)
}

// throttleLocked pushes a sampling period into the session's shared header.
// The observer mapping is read-only, so the first throttle opens a second,
// writable control mapping over the same file (shmlog.ControlFile — no
// attach-generation bump, stores restricted to the control words); the
// tenant's probes pick the new period up on the generation bump without any
// restart. Failures are traced and left for the next degrade to retry.
func (s *Session) throttleLocked(cycle uint64, period uint64) {
	if s.ctl == nil {
		ctl, err := shmlog.ControlFile(s.path)
		if err != nil {
			s.traceLocked(cycle, "throttle: control map: %v", err)
			return
		}
		s.ctl = ctl
	}
	s.prevPeriod = s.ctl.SamplePeriod()
	s.ctl.SetSamplePeriod(period)
	s.throttled = true
	s.traceLocked(cycle, "throttle: pushed sample period %d (was %d)", period, s.prevPeriod)
}

// unthrottleLocked restores the sampling period the throttle displaced.
func (s *Session) unthrottleLocked(cycle uint64) {
	if !s.throttled || s.ctl == nil {
		return
	}
	s.ctl.SetSamplePeriod(s.prevPeriod)
	s.throttled = false
	s.traceLocked(cycle, "throttle: restored sample period %d", s.prevPeriod)
}

// attachLocked tries to establish the observer mapping. Failure is normal
// while the creator is still laying out the header; the session just stays
// discovered until a later cycle.
func (s *Session) attachLocked(cycle uint64) bool {
	log, err := shmlog.ObserveFile(s.path)
	if err != nil {
		return false
	}
	s.log = log
	s.cur = log.Cursor()
	s.tab = symtab.New()
	if addr := log.ProfilerAddr(); addr != 0 {
		s.tab.SetLoadBias(addr)
	}
	s.inc = analyzer.NewIncremental(s.tab)
	s.syms = recorder.NewSymsLoader(s.path)
	s.attachGen = log.AttachGen()
	s.setStateLocked(cycle, StateAttached, "observer mapped")
	return true
}

// remap points the session at a fresh file under the same name — a
// re-registration. The old mapping is closed, the analyzer state reset
// (it described the old log), and cumulative entry accounting continues.
func (s *Session) remap(cycle uint64, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		_ = s.log.Close()
		s.log, s.cur, s.inc, s.tab, s.syms = nil, nil, nil, nil, nil
	}
	if s.ctl != nil {
		_ = s.ctl.Close()
		s.ctl = nil
	}
	s.path = path
	s.salvage = nil
	s.degraded = false
	s.throttled = false
	s.overBudget = 0
	s.appPID = 0
	s.setStateLocked(cycle, StateDiscovered, "re-registered "+path)
}

func (s *Session) drainLocked() int {
	// The recording may be sampled (by the recorder, or by this agent's own
	// throttle); weigh entries by the period in effect when they drain.
	s.inc.SetSamplePeriod(s.log.SamplePeriod())
	s.buf = s.cur.Next(s.buf[:0])
	s.inc.FeedAll(s.buf)
	s.entries += uint64(len(s.buf))
	return len(s.buf)
}

// salvageLocked is the dead → salvaged transition: one final cursor drain
// (committed entries are in the mapping regardless of how the app died),
// then a lenient raw-file read whose recovery report becomes the session's
// salvage record. With a history store configured, the drained log is also
// ingested as a durable segment, so dead sessions survive into time-travel
// queries.
func (s *Session) salvageLocked(cycle uint64, cfg Config) {
	drained := s.drainLocked()
	if tab, ok := s.syms.Load(); ok {
		s.adoptTableLocked(cycle, tab)
	}
	s.ingestHistoryLocked(cycle, cfg)
	f, err := os.Open(s.path)
	if err != nil {
		s.traceLocked(cycle, "salvage: open: %v", err)
		s.setStateLocked(cycle, StateSalvaged, "salvage failed")
		return
	}
	_, rep, err := shmlog.ReadLenient(f)
	f.Close()
	if err != nil {
		s.traceLocked(cycle, "salvage: read: %v", err)
		s.setStateLocked(cycle, StateSalvaged, "salvage failed")
		return
	}
	s.salvage = rep
	s.traceLocked(cycle, "salvage: final drain %d, file holds %d committed entries (%d dropped in flight)",
		drained, rep.EntriesSalvaged, rep.DroppedInFlight)
	s.setStateLocked(cycle, StateSalvaged, "recovery complete")
}

// ingestHistoryLocked persists the dead session's committed entries into
// the configured history store. The segment ID pins (name, attach gen), so
// a re-registered mapping under the same name ingests as a new segment
// while an agent restart replaying the same mapping deduplicates. Failure
// is traced, never fatal: salvage must complete regardless.
func (s *Session) ingestHistoryLocked(cycle uint64, cfg Config) {
	if cfg.HistoryStore == nil || s.log == nil {
		return
	}
	seg := fmt.Sprintf("%s@%d", s.name, s.attachGen)
	res, err := cfg.HistoryStore.IngestLog(s.log, s.tab, seg)
	switch {
	case err != nil:
		s.traceLocked(cycle, "history: ingest %s: %v", seg, err)
	case res.Duplicate:
		s.traceLocked(cycle, "history: segment %s already stored (table %d)", seg, res.TableSeq)
	default:
		s.historySeg = seg
		s.traceLocked(cycle, "history: stored segment %s (%d entries, table %d)", seg, res.Entries, res.TableSeq)
	}
}

// adoptTableLocked installs a freshly published symbol table under the
// log's load-bias anchor. Incremental.SetTable re-resolves what was already
// folded by address and drops its address memo, so no Incremental has to
// be rebuilt and fed from scratch.
func (s *Session) adoptTableLocked(cycle uint64, tab *symtab.Table) {
	if addr := s.log.ProfilerAddr(); addr != 0 {
		tab.SetLoadBias(addr)
	}
	s.tab = tab
	s.inc.SetTable(tab)
	s.traceLocked(cycle, "symbols: adopted %s", s.syms.Path())
}

// close releases the observer mapping (and the control mapping, if a
// throttle ever opened one).
func (s *Session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		_ = s.log.Close()
		s.log = nil
	}
	if s.ctl != nil {
		_ = s.ctl.Close()
		s.ctl = nil
	}
}
