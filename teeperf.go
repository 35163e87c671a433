// Package teeperf is an architecture- and platform-independent performance
// profiler for trusted execution environments, reproducing "TEE-Perf: A
// Profiler for Trusted Execution Environments" (Bailleu et al., DSN 2019).
//
// The profiler works in four stages:
//
//  1. Compiler — instrument the application (cmd/teeperf-instrument
//     rewrites Go sources; built-in workloads use the probe hooks
//     directly).
//  2. Recorder — a lock-free shared-memory log plus a software counter
//     collect every function entry and exit at run time.
//  3. Analyzer — offline call-stack reconstruction yields per-method
//     inclusive/exclusive times, caller/callee tables and a query
//     interface.
//  4. Visualizer — folded stacks and SVG flame graphs.
//
// This package is the high-level API: a Session ties the stages together
// for in-process profiling, and Load reopens persisted profile bundles.
package teeperf

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"teeperf/internal/agent"
	"teeperf/internal/analyzer"
	"teeperf/internal/counter"
	"teeperf/internal/flamegraph"
	"teeperf/internal/monitor"
	"teeperf/internal/probe"
	"teeperf/internal/query"
	"teeperf/internal/recorder"
	"teeperf/internal/report"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// Re-exported result types. The analyzer package is internal; these
// aliases are the public names.
type (
	// Profile is the analyzed result of one recording.
	Profile = analyzer.Profile
	// FuncStat aggregates one function's executions.
	FuncStat = analyzer.FuncStat
	// Record is one reconstructed function execution.
	Record = analyzer.Record
	// ThreadStat summarizes one thread.
	ThreadStat = analyzer.ThreadStat
	// Thread is a per-application-thread probe handle.
	Thread = probe.Thread
	// Hooks is the instrumentation contract (probe, perf publisher, nop).
	Hooks = probe.Hooks
	// Frame is the declarative query interface over profile records.
	Frame = query.Frame
	// SymbolTable resolves probe addresses to function names.
	SymbolTable = symtab.Table
)

// CounterMode selects the probe time source.
type CounterMode = recorder.CounterMode

// Counter modes.
const (
	// CounterSoftware is the paper's portable software counter: a
	// dedicated spinning thread (the default).
	CounterSoftware = recorder.CounterSoftware
	// CounterTSC uses the host monotonic clock.
	CounterTSC = recorder.CounterTSC
	// CounterVirtual is a deterministic source for tests.
	CounterVirtual = recorder.CounterVirtual
)

// Session is one profiling measurement: it owns the symbol table, the
// shared-memory log, the counter and the probe runtime.
type Session struct {
	tab     *symtab.Table
	rec     *recorder.Recorder
	recOpts []recorder.Option
	started bool
	only    func(string) bool
}

// Option configures New.
type Option interface {
	apply(*Session)
}

type optionFunc func(*Session)

func (f optionFunc) apply(s *Session) { f(s) }

// WithCapacity sets the log capacity in entries (default 1<<20).
func WithCapacity(entries int) Option {
	return optionFunc(func(s *Session) {
		s.recOpts = append(s.recOpts, recorder.WithCapacity(entries))
	})
}

// WithShards splits the log into n per-thread tail segments (threads hash
// to shards by ID), removing tail contention under many writers
// (default 1).
func WithShards(n int) Option {
	return optionFunc(func(s *Session) {
		s.recOpts = append(s.recOpts, recorder.WithShards(n))
	})
}

// WithCounter selects the time source (default CounterSoftware).
func WithCounter(mode CounterMode) Option {
	return optionFunc(func(s *Session) {
		s.recOpts = append(s.recOpts, recorder.WithCounterMode(mode))
	})
}

// WithCounterSource installs a custom counter source.
func WithCounterSource(src counter.Source) Option {
	return optionFunc(func(s *Session) {
		s.recOpts = append(s.recOpts, recorder.WithCounterSource(src))
	})
}

// WithPID tags the log with the profiled process ID.
func WithPID(pid uint64) Option {
	return optionFunc(func(s *Session) {
		s.recOpts = append(s.recOpts, recorder.WithPID(pid))
	})
}

// WithLoadBias simulates relocated code (the analyzer recovers the offset
// from the profiler anchor recorded in the log header).
func WithLoadBias(delta int64) Option {
	return optionFunc(func(s *Session) {
		s.recOpts = append(s.recOpts, recorder.WithLoadBias(delta))
	})
}

// WithBatch makes each probe thread reserve blocks of k log slots with one
// tail fetch-and-add (default 1), amortizing the contended atomic across k
// events on hot multi-threaded runs.
func WithBatch(k int) Option {
	return optionFunc(func(s *Session) {
		s.recOpts = append(s.recOpts, recorder.WithBatch(k))
	})
}

// WithSample records one call pair in n (0 and 1 both record everything).
// The period is published in the log header, so analyzers scale the
// sampled weights back up and external controllers can move it live.
func WithSample(n uint64) Option {
	return optionFunc(func(s *Session) {
		s.recOpts = append(s.recOpts, recorder.WithSamplePeriod(n))
	})
}

// WithSelective restricts recording to functions whose registered name
// satisfies pred — selective code profiling.
func WithSelective(pred func(name string) bool) Option {
	return optionFunc(func(s *Session) { s.only = pred })
}

// New creates a session. Register the application's functions, hand probe
// Threads to its goroutines, then Start.
func New(opts ...Option) (*Session, error) {
	s := &Session{tab: symtab.New()}
	for _, opt := range opts {
		opt.apply(s)
	}
	return s, nil
}

// Table exposes the session's symbol table (for workload registration
// helpers).
func (s *Session) Table() *symtab.Table { return s.tab }

// RegisterFunc adds one function and returns its probe address.
func (s *Session) RegisterFunc(name, file string, line int) (uint64, error) {
	if s.started {
		return 0, errors.New("teeperf: cannot register after Start")
	}
	return s.tab.Register(name, 64, file, line)
}

// AddrOf resolves a registered function name to its runtime probe address.
// It returns 0 for unknown names.
func (s *Session) AddrOf(name string) uint64 {
	if s.rec != nil {
		return s.rec.AddrOf(name)
	}
	return s.tab.Addr(name)
}

// Start activates recording. All functions must be registered beforehand.
func (s *Session) Start() error {
	if s.started {
		return errors.New("teeperf: already started")
	}
	opts := s.recOpts
	if s.only != nil {
		f, err := probe.NewFilter(s.tab, func(sym symtab.Symbol) bool {
			return s.only(sym.Name)
		})
		if err != nil {
			return fmt.Errorf("teeperf: build filter: %w", err)
		}
		opts = append(opts, recorder.WithFilter(f))
	}
	// A wrapper recorder process (`teeperf run`) hands its shared mapping
	// over via the environment; attach instead of allocating, so the
	// recording lands in the mapping the wrapper persists.
	if shm := os.Getenv(recorder.SharedEnv); shm != "" && shmlog.MmapSupported {
		opts = append(opts, recorder.WithShared(shm))
	}
	rec, err := recorder.New(s.tab, opts...)
	if err != nil {
		return fmt.Errorf("teeperf: create recorder: %w", err)
	}
	if shm := rec.SharedPath(); shm != "" {
		// The table is complete at Start, so publish the symbol side file
		// for the hosting recorder process.
		if err := recorder.WriteSymsFile(recorder.SymsPath(shm), s.tab); err != nil {
			return fmt.Errorf("teeperf: publish symbols: %w", err)
		}
	}
	s.rec = rec
	s.started = true
	return rec.Start()
}

// Thread registers an application thread and returns its probe handle.
// Call after Start.
func (s *Session) Thread() (*Thread, error) {
	if !s.started {
		return nil, errors.New("teeperf: session not started")
	}
	return s.rec.Thread(), nil
}

// Enable resumes recording mid-run.
func (s *Session) Enable() {
	if s.rec != nil {
		s.rec.Enable()
	}
}

// Disable pauses recording mid-run.
func (s *Session) Disable() {
	if s.rec != nil {
		s.rec.Disable()
	}
}

// Stop ends the measurement (idempotent). In cross-process mode the shared
// mapping is flushed to its backing file so the hosting recorder (or an
// offline salvage) sees the final state even if this process exits right
// after.
func (s *Session) Stop() error {
	if !s.started {
		return errors.New("teeperf: session not started")
	}
	if err := s.rec.Stop(); err != nil {
		return err
	}
	if s.rec.SharedPath() != "" {
		return s.rec.Log().Msync()
	}
	return nil
}

// Stats reports recorder statistics.
func (s *Session) Stats() recorder.Stats {
	if s.rec == nil {
		return recorder.Stats{}
	}
	return s.rec.Stats()
}

// Profile analyzes the recorded log (stage 3).
func (s *Session) Profile() (*Profile, error) {
	if s.rec == nil {
		return nil, errors.New("teeperf: session not started")
	}
	return analyzer.Analyze(s.rec.Log(), s.tab)
}

// Persist writes the profile bundle (symbols + log) to path.
func (s *Session) Persist(path string) error {
	if s.rec == nil {
		return errors.New("teeperf: session not started")
	}
	return s.rec.Persist(path)
}

// PersistTo writes the profile bundle to w.
func (s *Session) PersistTo(w io.Writer) error {
	if s.rec == nil {
		return errors.New("teeperf: session not started")
	}
	return s.rec.PersistTo(w)
}

// Load reads a persisted profile bundle and analyzes it.
func Load(path string) (*Profile, error) {
	tab, log, err := recorder.ReadBundleFile(path)
	if err != nil {
		return nil, err
	}
	return analyzer.Analyze(log, tab)
}

// RecoveryReport describes what lenient loading salvaged from a torn or
// corrupted bundle (see LoadLenient and `teeperf recover`).
type RecoveryReport = shmlog.RecoveryReport

// LoadLenient reads a possibly torn or corrupted profile bundle — e.g.
// the .part file left by a recorder killed mid-checkpoint — salvaging
// every committed entry it can. The profile's Recovery field carries the
// salvage report; salvaged-but-unmatched entries appear under the
// synthetic "[truncated]" frame.
func LoadLenient(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tab, log, rep, err := recorder.ReadBundleLenient(f)
	if err != nil {
		return nil, err
	}
	return analyzer.AnalyzeRecovered(log, tab, rep)
}

// LoadFrom reads a profile bundle from r and analyzes it.
func LoadFrom(r io.Reader) (*Profile, error) {
	tab, log, err := recorder.ReadBundle(r)
	if err != nil {
		return nil, err
	}
	return analyzer.Analyze(log, tab)
}

// Query builds the declarative query frame over a profile's records (the
// pandas-equivalent interface).
func Query(p *Profile) *Frame {
	return query.FromProfile(p)
}

// Agg is one aggregation for Frame.GroupBy.
type Agg = query.Agg

// SortOrder selects ascending or descending Frame.Sort order.
type SortOrder = query.SortOrder

// Sort orders.
const (
	Asc  = query.Asc
	Desc = query.Desc
)

// Aggregation constructors for Frame.GroupBy.
var (
	Count    = query.Count
	Sum      = query.Sum
	Mean     = query.Mean
	MinAgg   = query.Min
	MaxAgg   = query.Max
	Quantile = query.Quantile
)

// FlameGraphOptions configures WriteFlameGraphSVG.
type FlameGraphOptions = flamegraph.SVGOptions

// WriteFlameGraphSVG renders the profile as an SVG flame graph (stage 4).
func WriteFlameGraphSVG(w io.Writer, p *Profile, opts FlameGraphOptions) error {
	return flamegraph.RenderSVG(w, p.Folded(), opts)
}

// WriteFolded emits the profile's folded stacks in the standard text
// format, compatible with external flame-graph tooling.
func WriteFolded(w io.Writer, p *Profile) error {
	return flamegraph.WriteFolded(w, p.Folded())
}

// DiffRow compares one function between two profiles.
type DiffRow = analyzer.DiffRow

// DiffProfiles compares two profiles function by function (the
// before/after view of an optimization).
func DiffProfiles(before, after *Profile) []DiffRow {
	return analyzer.Diff(before, after)
}

// WriteDiff renders a profile diff as a table.
func WriteDiff(w io.Writer, rows []DiffRow, top int) error {
	return analyzer.WriteDiff(w, rows, top)
}

// PathStat aggregates executions sharing one full call path.
type PathStat = analyzer.PathStat

// WhatIfResult projects the effect of removing functions from the
// critical path (Amdahl).
type WhatIfResult = analyzer.WhatIfResult

// WriteWhatIf renders a what-if projection.
func WriteWhatIf(w io.Writer, r WhatIfResult) error {
	return analyzer.WriteWhatIf(w, r)
}

// MergeProfiles aggregates profiles from multiple runs.
func MergeProfiles(profiles ...*Profile) (*Profile, error) {
	return analyzer.Merge(profiles...)
}

// HTMLReportOptions configures WriteHTMLReport.
type HTMLReportOptions = report.Options

// WriteHTMLReport renders a self-contained HTML report (summary, hot
// methods, call paths, threads, embedded flame graph).
func WriteHTMLReport(w io.Writer, p *Profile, opts HTMLReportOptions) error {
	return report.Render(w, p, opts)
}

// Rotate swaps in a fresh log segment and returns the filled one as an
// analyzed profile segment; use MergeProfiles to combine segments. It lets
// a measurement outlive the configured log capacity without dropping
// events.
func (s *Session) Rotate() (*Profile, error) {
	if s.rec == nil {
		return nil, errors.New("teeperf: session not started")
	}
	prev, err := s.rec.Rotate()
	if err != nil {
		return nil, err
	}
	return analyzer.Analyze(prev, s.tab)
}

// StartAutoRotate persists filled log segments into dir whenever the
// active segment crosses fillThreshold (e.g. 0.9); Stop halts it. Load the
// segment bundles individually and MergeProfiles them.
func (s *Session) StartAutoRotate(dir string, fillThreshold float64) error {
	if s.rec == nil {
		return errors.New("teeperf: session not started")
	}
	return s.rec.StartAutoRotate(dir, fillThreshold, 0)
}

// StartCheckpoint launches crash-consistent background persistence: every
// interval the session's bundle is snapshotted to path+".part" and
// atomically renamed onto path, so a process killed at any instant leaves
// a loadable bundle (at worst a torn .part that LoadLenient salvages).
// Stop performs one final checkpoint and halts the flusher.
func (s *Session) StartCheckpoint(path string, interval time.Duration) error {
	if s.rec == nil {
		return errors.New("teeperf: session not started")
	}
	return s.rec.StartCheckpoint(path, interval)
}

// Live-monitoring re-exports. The monitor tails the shared-memory log
// while the measurement runs, folding committed entries into a live
// hot-methods table and sampling recorder health (entries/s, drop rate,
// log fill, counter ticks/s).
type (
	// Monitor is the live observer over a running session.
	Monitor = monitor.Monitor
	// MonitorServer is a running live-monitor HTTP endpoint: the fleet
	// agent's, hosting the session's monitor.
	MonitorServer = agent.Server
	// MonitorSample is one point of the run's trajectory: totals plus the
	// rates over the last sample window.
	MonitorSample = monitor.Sample
	// MonitorOption configures a Monitor.
	MonitorOption = monitor.Option
	// LiveTable is a point-in-time view of the live profile.
	LiveTable = analyzer.LiveTable
	// LiveFunc is one function's running totals in the live table.
	LiveFunc = analyzer.LiveFunc
)

// WithMonitorInterval sets the sampling interval (default 250ms).
var WithMonitorInterval = monitor.WithInterval

// Monitor creates (but does not start) a live monitor over the running
// session. Call its Start method to begin background sampling, or Poll /
// Table for on-demand reads.
func (s *Session) Monitor(opts ...MonitorOption) (*Monitor, error) {
	if s.rec == nil {
		return nil, errors.New("teeperf: session not started")
	}
	return monitor.New(s.rec, opts...), nil
}

// ServeMonitor hosts a monitor over the running session as the agent
// session "main" and serves the agent's HTTP plane on addr (e.g. ":7070"):
// /metrics (Prometheus text), /vars (JSON keyed by series),
// /profile.json?session=main, /sessions, /trace?session=main and a live
// HTML page at /. The monitor is scraped every interval (WithMonitorInterval).
// Close the returned server to stop serving.
func (s *Session) ServeMonitor(addr string, opts ...MonitorOption) (*MonitorServer, error) {
	if s.rec == nil {
		return nil, errors.New("teeperf: session not started")
	}
	m := monitor.New(s.rec, opts...)
	a := agent.New(agent.Config{Interval: m.Interval()})
	a.Host("main", m)
	return agent.Serve(a, addr)
}
