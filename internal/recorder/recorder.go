// Package recorder implements TEE-Perf's stage 2: the native wrapper
// process that runs alongside the application in the TEE. It sets up the
// shared-memory log, maps the software counter into it, hands probe handles
// to application threads, allows recording to be toggled while the
// application runs, and persists the log (plus the symbol side file) after
// the measurement.
package recorder

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"teeperf/internal/counter"
	"teeperf/internal/faultinject"
	"teeperf/internal/probe"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// CounterMode selects the probe time source.
type CounterMode int

// Counter modes. CounterSoftware is the paper's default: a dedicated
// spinning thread, usable on any platform. CounterTSC uses the host
// monotonic clock and models platforms where a hardware counter is
// readable from inside the TEE. CounterVirtual is a deterministic source
// for tests.
const (
	CounterSoftware CounterMode = iota + 1
	CounterTSC
	CounterVirtual
)

// Errors returned by the recorder lifecycle.
var (
	ErrAlreadyStarted = errors.New("recorder: already started")
	ErrNotStarted     = errors.New("recorder: not started")
)

// Recorder owns one profiling run.
type Recorder struct {
	// tabMu guards tab: in cross-process mode the hosting recorder starts
	// with an empty table and SetTable swaps in the application's symbols
	// (read from the side file) while checkpointing may be reading it.
	tabMu sync.RWMutex
	tab   *symtab.Table

	rt   *probe.Runtime
	soft *counter.Software
	src  counter.Source
	bias int64
	cfg  config

	// sharedPath is the backing file of a cross-process (mmap) log; empty
	// for in-process runs. host marks the recorder-side end of the attach
	// protocol: it owns the counter thread and the ready flag.
	sharedPath string
	host       bool

	// stateMu guards the run-lifecycle fields below; the live monitor
	// calls Stats concurrently with Start/Stop.
	stateMu   sync.Mutex
	started   bool
	stopped   bool
	startTime time.Time
	duration  time.Duration

	rotateMu    sync.Mutex
	segments    int
	rotateHooks []func(old *shmlog.Log)

	rotStop chan struct{}
	rotDone chan struct{}
	// rotErr is the watcher's final write error, set before rotDone
	// closes; rotatedLost counts the entries of the segments it names.
	rotErr      error
	rotatedLost atomic.Uint64

	// Checkpointing state (checkpoint.go). ckptMu is separate from
	// stateMu so checkpoint passes never contend with Stats sampling.
	ckptMu    sync.Mutex
	ckpt      *checkpointer
	ckptPath  string
	ckptStats CheckpointStats

	// fileMu serializes Persist and checkpoint passes (writeFile).
	fileMu sync.Mutex

	inject *faultinject.Injector
}

// Option configures New.
type Option interface {
	apply(*config)
}

type config struct {
	capacity     int
	shards       int
	pid          uint64
	mode         CounterMode
	source       counter.Source
	filter       *probe.Filter
	bias         int64
	batch        int
	samplePeriod uint64
	inject       *faultinject.Injector
	shared       string
	table        *symtab.Table
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// logShards normalizes the configured shard count for log creation: zero
// (unset) means a single segment.
func (c *config) logShards() int {
	if c.shards < 1 {
		return 1
	}
	return c.shards
}

// WithCapacity sets the log capacity in entries (default 1<<20).
func WithCapacity(entries int) Option {
	return optionFunc(func(c *config) { c.capacity = entries })
}

// WithShards splits the log's entry region into n independent per-thread
// segments (hashed by thread ID), each with its own cache-line-aligned
// tail, so many writer threads append without contending on one
// fetch-and-add word (default 1).
func WithShards(n int) Option {
	return optionFunc(func(c *config) { c.shards = n })
}

// WithPID records the profiled process ID in the log header.
func WithPID(pid uint64) Option {
	return optionFunc(func(c *config) { c.pid = pid })
}

// WithCounterMode selects the time source (default CounterSoftware).
func WithCounterMode(m CounterMode) Option {
	return optionFunc(func(c *config) { c.mode = m })
}

// WithCounterSource installs a custom counter source, overriding the mode.
func WithCounterSource(src counter.Source) Option {
	return optionFunc(func(c *config) { c.source = src })
}

// WithFilter enables selective code profiling.
func WithFilter(f *probe.Filter) Option {
	return optionFunc(func(c *config) { c.filter = f })
}

// WithLoadBias simulates the binary being relocated by delta bytes: probe
// addresses and the recorded profiler anchor are shifted, and the analyzer
// must recover the offset from the anchor (the paper's relocation
// handling).
func WithLoadBias(delta int64) Option {
	return optionFunc(func(c *config) { c.bias = delta })
}

// WithBatch makes each probe thread reserve blocks of k log slots per tail
// fetch-and-add instead of one (default 1; see probe.WithBatch). Unused
// trailing slots of a block are released at rotation and at Stop.
func WithBatch(k int) Option {
	return optionFunc(func(c *config) { c.batch = k })
}

// WithSamplePeriod makes probes record 1-in-n call pairs (0 and 1 both mean
// every pair). The period is published in the log header so analyzers scale
// folded weights back up, and can be changed live with SetSamplePeriod.
func WithSamplePeriod(n uint64) Option {
	return optionFunc(func(c *config) { c.samplePeriod = n })
}

// WithFaultInjector installs a fault injector on the recorder's
// persistence and counter paths (tests and chaos runs). The default is
// the disabled package injector, whose fault points cost one atomic load.
func WithFaultInjector(in *faultinject.Injector) Option {
	return optionFunc(func(c *config) { c.inject = in })
}

// WithShared attaches the recorder to an existing file-backed shared log
// (created by a hosting recorder process, see Create) instead of
// allocating a heap log. The default counter source becomes a passive
// reader of the shared counter word — the hosting process runs the
// increment loop. WithCapacity is ignored: the mapping's creator fixed it.
func WithShared(path string) Option {
	return optionFunc(func(c *config) { c.shared = path })
}

// WithTable supplies the symbol table for Create/Attach hosts. The default
// is a fresh table; the host later learns the application's symbols via
// SetTable (from the side file the instrumented process writes).
func WithTable(tab *symtab.Table) Option {
	return optionFunc(func(c *config) { c.table = tab })
}

// counterShared is the resolved default mode of a recorder attached to a
// shared mapping it does not host: a passive reader of the counter word
// the hosting process advances.
const counterShared CounterMode = -1

// New prepares a recorder over the given symbol table. The log is created
// inactive; Start activates it. With WithShared the recorder instead opens
// an existing file-backed mapping (created by a hosting recorder process)
// and stamps this process's PID and profiler anchor into the shared
// header.
func New(tab *symtab.Table, opts ...Option) (*Recorder, error) {
	if tab == nil {
		return nil, errors.New("recorder: nil symbol table")
	}
	cfg := config{capacity: 1 << 20}
	for _, opt := range opts {
		opt.apply(&cfg)
	}

	var log *shmlog.Log
	if cfg.shared != "" {
		l, err := shmlog.OpenFile(cfg.shared)
		if err != nil {
			return nil, fmt.Errorf("recorder: attach shared log: %w", err)
		}
		pid := cfg.pid
		if pid == 0 {
			pid = uint64(os.Getpid())
		}
		l.SetPID(pid)
		l.SetProfilerAddr(uint64(int64(tab.AnchorAddr()) + cfg.bias))
		if cfg.samplePeriod > 0 {
			// The creator fixed capacity and layout, but the sampling period
			// is this process's recording decision: publish it through the
			// shared control words.
			l.SetSamplePeriod(cfg.samplePeriod)
		}
		log = l
	} else {
		anchorRuntime := uint64(int64(tab.AnchorAddr()) + cfg.bias)
		l, err := shmlog.New(cfg.capacity,
			shmlog.WithPID(cfg.pid),
			shmlog.WithProfilerAddr(anchorRuntime),
			shmlog.WithShards(cfg.logShards()),
			shmlog.WithSamplePeriod(cfg.samplePeriod),
			shmlog.WithFlags(shmlog.EventCall|shmlog.EventReturn), // inactive until Start
		)
		if err != nil {
			return nil, fmt.Errorf("recorder: create log: %w", err)
		}
		log = l
	}
	r, err := newRecorder(tab, log, cfg, false)
	if err != nil && log.Mapped() {
		log.Close()
	}
	return r, err
}

// newRecorder wires the counter source and probe runtime over an existing
// log. host marks the recorder-process end of a shared mapping: it owns
// the counter thread and the recorder-ready handshake bit.
func newRecorder(tab *symtab.Table, log *shmlog.Log, cfg config, host bool) (*Recorder, error) {
	r := &Recorder{tab: tab, bias: cfg.bias, cfg: cfg, inject: cfg.inject, host: host}
	if log.Mapped() {
		r.sharedPath = log.Path()
	}
	mode := cfg.mode
	if mode == 0 {
		// Default mode: the software counter — except on the application
		// side of a shared mapping, where the hosting recorder process
		// already runs the increment loop and this process only reads it.
		if log.Mapped() && !host {
			mode = counterShared
		} else {
			mode = CounterSoftware
		}
	}
	switch {
	case cfg.source != nil:
		r.src = cfg.source
	case mode == counterShared:
		r.src = counter.NewReader(log)
	case mode == CounterSoftware:
		r.soft = counter.NewSoftware(log)
		// With an explicit injector, the counter thread checks the
		// CounterStall fault point every 1024 increments so chaos tests
		// can stall it; the default (nil) wiring adds nothing to the
		// counter loop.
		if cfg.inject != nil {
			in := cfg.inject
			r.soft.OnTick(func() { _ = in.Hit(faultinject.CounterStall) })
		}
		r.src = r.soft
	case mode == CounterTSC:
		r.src = counter.NewTSC()
	case mode == CounterVirtual:
		r.src = counter.NewVirtual(1)
	default:
		return nil, fmt.Errorf("recorder: unknown counter mode %d", cfg.mode)
	}

	var probeOpts []probe.Option
	if cfg.filter != nil {
		probeOpts = append(probeOpts, probe.WithFilter(cfg.filter))
	}
	if cfg.batch > 0 {
		probeOpts = append(probeOpts, probe.WithBatch(cfg.batch))
	}
	rt, err := probe.New(log, r.src, probeOpts...)
	if err != nil {
		return nil, fmt.Errorf("recorder: create probe runtime: %w", err)
	}
	r.rt = rt
	return r, nil
}

// Log exposes the currently active shared-memory log segment.
func (r *Recorder) Log() *shmlog.Log { return r.rt.Log() }

// injector returns the configured fault injector, defaulting to the
// disabled package-level one.
func (r *Recorder) injector() *faultinject.Injector {
	if r.inject != nil {
		return r.inject
	}
	return faultinject.Default
}

// Table exposes the symbol table.
func (r *Recorder) Table() *symtab.Table {
	r.tabMu.RLock()
	defer r.tabMu.RUnlock()
	return r.tab
}

// SetTable swaps in a new symbol table. A hosting recorder starts with an
// (almost) empty table and installs the application's symbols once the
// instrumented process has written its side file; persistence and
// checkpointing pick up the new table on their next pass.
func (r *Recorder) SetTable(tab *symtab.Table) {
	if tab == nil {
		return
	}
	r.tabMu.Lock()
	r.tab = tab
	r.tabMu.Unlock()
}

// SharedPath returns the backing file of a cross-process shared log, or ""
// for an in-process (heap) recorder.
func (r *Recorder) SharedPath() string { return r.sharedPath }

// Source exposes the counter source used by probes.
func (r *Recorder) Source() counter.Source { return r.src }

// AddrOf returns the runtime (relocated) address of a registered function;
// workload setup uses it to wire probe call sites.
func (r *Recorder) AddrOf(name string) uint64 {
	static := r.Table().Addr(name)
	if static == 0 {
		return 0
	}
	return uint64(int64(static) + r.bias)
}

// Thread registers an application thread and returns its probe handle.
func (r *Recorder) Thread() *probe.Thread { return r.rt.Thread() }

// Start launches the counter (software mode) and activates recording.
func (r *Recorder) Start() error {
	r.stateMu.Lock()
	if r.started {
		r.stateMu.Unlock()
		return ErrAlreadyStarted
	}
	r.started = true
	r.startTime = time.Now()
	r.stateMu.Unlock()
	if r.soft != nil {
		r.soft.Start()
	}
	r.Log().SetActive(true)
	if r.host {
		// Attach handshake: the counter thread is live, tell the (possibly
		// not yet spawned) application it can start sampling.
		r.Log().SetReady(true)
	}
	return nil
}

// Stop deactivates recording and stops the counter. It is idempotent after
// the first successful call. When auto-rotation could not write some
// rotated-out segment (see StartAutoRotate), Stop still finishes and then
// returns that error.
func (r *Recorder) Stop() error {
	r.stateMu.Lock()
	if !r.started {
		r.stateMu.Unlock()
		return ErrNotStarted
	}
	if r.stopped {
		r.stateMu.Unlock()
		return nil
	}
	r.stopped = true
	r.duration = time.Since(r.startTime)
	r.stateMu.Unlock()
	rotErr := r.StopAutoRotate()
	r.Log().SetActive(false)
	if r.host {
		r.Log().SetReady(false)
	}
	// Release the trailing reserved slots of every thread's batched block
	// so the persisted log carries tombstones (dismissed by readers)
	// instead of permanent holes. The probe runtime's per-thread busy
	// handshake makes this safe even if a straggling batched probe
	// overlaps Stop; the straggler's event is recorded or dropped, never
	// torn. An unbatched probe holds no block to release. A straggler of
	// either kind that passed the active check before SetActive(false)
	// may still commit its event after Stop returns: the batched one by
	// taking the handshake after the flush, the unbatched one directly.
	r.rt.Flush()
	// The final checkpoint runs after the flush so it captures the fully
	// tombstoned log; a crash before this point is covered by the last
	// periodic checkpoint plus lenient recovery of the torn .part file.
	if err := r.StopCheckpoint(); err != nil {
		return fmt.Errorf("recorder: final checkpoint: %w", err)
	}
	if r.soft != nil {
		if err := r.soft.Stop(); err != nil {
			return fmt.Errorf("recorder: stop counter: %w", err)
		}
	}
	return rotErr
}

// Enable resumes recording mid-run (dynamic activation, paper §II-B).
func (r *Recorder) Enable() { r.Log().SetActive(true) }

// Disable pauses recording mid-run without stopping the counter.
func (r *Recorder) Disable() { r.Log().SetActive(false) }

// SetSamplePeriod changes the sampling period live (record 1-in-n call
// pairs; 0 and 1 restore full recording). Probes pick the change up on
// their next event via the control-generation handshake; rotation carries
// it into subsequent segments.
func (r *Recorder) SetSamplePeriod(n uint64) { r.Log().SetSamplePeriod(n) }

// SetThreadMask replaces the live thread deny-mask (bit (tid-1)%64
// suppresses matching threads; all-ones stops every thread, zero records
// everything).
func (r *Recorder) SetThreadMask(mask uint64) { r.Log().SetThreadMask(mask) }

// SetAddrMask replaces the live address deny-range [lo, hi): events whose
// target address falls inside are suppressed. lo == hi disables the range.
func (r *Recorder) SetAddrMask(lo, hi uint64) { r.Log().SetAddrMask(lo, hi) }

// Stats summarizes the run. It is shared by the post-run CLI summary and
// the live monitor, which samples it while the run is still in progress.
type Stats struct {
	// Entries is the number of committed log entries in the active
	// segment.
	Entries int
	// Dropped counts events lost to log overflow.
	Dropped uint64
	// CounterTicks is the final counter value.
	CounterTicks uint64
	// Duration is the wall-clock time between Start and Stop; while the
	// run is still in progress it is the time since Start.
	Duration time.Duration
	// Capacity is the active log segment's capacity in entries.
	Capacity int
	// FillPercent is Entries as a percentage of Capacity.
	FillPercent float64
	// Rotations counts completed log-segment rotations.
	Rotations int
	// DropRate is drops per second of run (0 before Start).
	DropRate float64
	// SamplePeriod is the live sampling period (1 when recording every
	// call pair).
	SamplePeriod uint64
	// Masked counts events suppressed by the sampling period or a deny
	// mask (accumulated across rotations).
	Masked uint64
	// BatchSize is the probe runtime's configured reservation batch size.
	BatchSize int
	// RotatedLost counts the entries of rotated-out segments that
	// auto-rotation still failed to write when it stopped: they are in no
	// segment file.
	RotatedLost uint64
}

// Stats returns the run summary.
func (r *Recorder) Stats() Stats {
	r.stateMu.Lock()
	duration := r.duration
	if r.started && !r.stopped {
		duration = time.Since(r.startTime)
	}
	r.stateMu.Unlock()

	log := r.Log()
	// The log's counter header word is maintained by the software counter
	// thread; with a TSC/virtual source the source itself is authoritative.
	ticks := log.LoadCounter()
	if r.soft == nil && r.src != nil {
		ticks = r.src.Now()
	}
	// All of this process's writes flow through the probe runtime, whose
	// drop counter spans every rotated segment; the log header's counter
	// additionally sees drops suffered by another process sharing the
	// mapping. Report whichever view is larger.
	dropped := r.rt.Dropped()
	if ld := log.Dropped(); ld > dropped {
		dropped = ld
	}
	// Like drops, the masked count spans every rotated segment via the
	// probe runtime, while the header word additionally sees suppression in
	// another process sharing the mapping.
	masked := r.rt.Masked()
	if lm := log.Masked(); lm > masked {
		masked = lm
	}
	period := log.SamplePeriod()
	if period == 0 {
		period = 1
	}
	st := Stats{
		Entries:      log.Len(),
		Dropped:      dropped,
		CounterTicks: ticks,
		Duration:     duration,
		Capacity:     log.Capacity(),
		Rotations:    r.Segments(),
		SamplePeriod: period,
		Masked:       masked,
		BatchSize:    r.rt.Batch(),
		RotatedLost:  r.rotatedLost.Load(),
	}
	if st.Capacity > 0 {
		st.FillPercent = 100 * float64(st.Entries) / float64(st.Capacity)
	}
	if secs := duration.Seconds(); secs > 0 {
		st.DropRate = float64(st.Dropped) / secs
	}
	return st
}

// Persist writes the profile bundle (symbols + active log) to path, as
// every bundle file is written: path+".part", fsync, atomic rename. A crash
// or write error mid-Persist leaves path as it was, so the final checkpoint
// of a checkpointed run survives a Persist onto the same path that fails.
func (r *Recorder) Persist(path string) error {
	_, err := r.writeFile(path)
	return err
}

// writeFile writes the active log with the current symbol table to the
// bundle file at path. fileMu makes Persist and checkpoint passes one at a
// time, so two aimed at the same path never share one .part file. Rotated
// segments go to their own paths and skip it (PersistSegment): waiting
// behind a checkpoint pass delays the next rotation until the log drops.
func (r *Recorder) writeFile(path string) (uint64, error) {
	r.fileMu.Lock()
	defer r.fileMu.Unlock()
	return writeBundleFile(r.injector(), path, r.Table(), r.Log())
}

// PersistTo writes the profile bundle to w.
func (r *Recorder) PersistTo(w io.Writer) error {
	return WriteBundle(w, r.Table(), r.Log())
}
