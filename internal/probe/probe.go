// Package probe is the run-time half of TEE-Perf's compiler stage: the code
// the compiler pass injects at every function entry and exit. A probe reads
// the counter, and appends a call/return entry to the shared-memory log
// under the reserving thread's ID. Probes guard against instrumenting
// themselves (the __attribute__((no_instrument_function)) analogue) and
// honor the dynamic activation flags and the selective-profiling filter.
package probe

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"teeperf/internal/counter"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// Hooks is the instrumentation contract workloads are compiled against.
// The TEE-Perf probe, the perf-baseline publisher and the no-op native
// hooks all implement it, so one workload binary serves all three
// measurement modes.
type Hooks interface {
	// Enter fires at function entry with the function's address.
	Enter(addr uint64)
	// Exit fires at function exit with the function's address.
	Exit(addr uint64)
}

// Nop is the zero-cost Hooks used for uninstrumented (native baseline)
// runs.
type Nop struct{}

var _ Hooks = Nop{}

// Enter does nothing.
func (Nop) Enter(uint64) {}

// Exit does nothing.
func (Nop) Exit(uint64) {}

// Runtime owns the probe state shared by all threads of one profiled
// process: the log, the counter source, the selective filter and the
// slot-reservation batch size. The log is held behind an atomic pointer so
// the recorder can rotate a full log out from under running probes without
// stopping the application.
type Runtime struct {
	log    atomic.Pointer[shmlog.Log]
	src    counter.Source
	filter *Filter
	batch  int
	// unbatched is set for batch 1: each event then reserves and commits
	// its one slot inside a single probe call, so threads hold no block
	// between calls and flushes have nothing to release (see Thread.record).
	unbatched bool

	nextTID atomic.Uint64
	drops   atomic.Uint64
	// masked counts events suppressed by the sampling period or a deny
	// mask, accumulated across log rotations (threads flush their local
	// tallies here and into the current log's shared header word).
	masked atomic.Uint64

	threadsMu sync.Mutex
	threads   []*Thread
}

// Option configures New.
type Option interface {
	apply(*runtimeOptions)
}

type runtimeOptions struct {
	filter *Filter
	batch  int
}

type filterOption struct{ f *Filter }

func (o filterOption) apply(opts *runtimeOptions) { opts.filter = o.f }

// WithFilter restricts recording to the functions selected by f
// (selective code profiling). A nil filter records everything.
func WithFilter(f *Filter) Option { return filterOption{f: f} }

type batchOption int

func (o batchOption) apply(opts *runtimeOptions) { opts.batch = int(o) }

// WithBatch makes each thread reserve blocks of k log slots with a single
// tail fetch-and-add and fill them locally, cutting the contended global
// atomic from one per event to one per k events. The default (k = 1)
// reserves per event, exactly like shmlog.Append, and skips the flush
// handshake, since a thread then holds no block between events. Unused
// trailing slots of a block are released (tombstoned) when the thread
// flushes, observes a rotation, or the runtime stops. A k above 1 is
// mirrored into the log header (shmlog.SetBatchSize) so external observers
// of a shared mapping can export it.
func WithBatch(k int) Option { return batchOption(k) }

// New creates a probe runtime writing to log with timestamps from src.
func New(log *shmlog.Log, src counter.Source, opts ...Option) (*Runtime, error) {
	if log == nil {
		return nil, errors.New("probe: nil log")
	}
	if src == nil {
		return nil, errors.New("probe: nil counter source")
	}
	var o runtimeOptions
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.batch < 0 {
		return nil, fmt.Errorf("probe: batch size must be >= 1, got %d", o.batch)
	}
	if o.batch == 0 {
		o.batch = 1
	}
	// Only a batch above the default is mirrored, so a default-batch
	// runtime attached to a shared mapping never overwrites the value an
	// application runtime stored there.
	if o.batch > 1 {
		log.SetBatchSize(uint64(o.batch))
	}
	rt := &Runtime{
		src:       src,
		filter:    o.filter,
		batch:     o.batch,
		unbatched: o.batch == 1,
	}
	rt.log.Store(log)
	return rt, nil
}

// Batch returns the configured slot-reservation batch size.
func (rt *Runtime) Batch() int { return rt.batch }

// Masked returns how many events were suppressed by the sampling period or
// a deny mask, accumulated across log rotations. Threads flush their local
// tallies in bulk, so the value can trail by a few events until Flush.
func (rt *Runtime) Masked() uint64 { return rt.masked.Load() }

// Log returns the current shared-memory log.
func (rt *Runtime) Log() *shmlog.Log { return rt.log.Load() }

// SwapLog atomically installs next as the active log and returns the
// previous one (log rotation). Probes racing with the swap land in one of
// the two logs; per-thread ordering within each log is preserved.
func (rt *Runtime) SwapLog(next *shmlog.Log) (*shmlog.Log, error) {
	if next == nil {
		return nil, errors.New("probe: nil log")
	}
	return rt.log.Swap(next), nil
}

// Dropped returns how many probe events could not be recorded (log full).
func (rt *Runtime) Dropped() uint64 { return rt.drops.Load() }

// Thread registers a new application thread and returns its probe handle.
// The second registered thread switches the log into multithread mode.
func (rt *Runtime) Thread() *Thread {
	id := rt.nextTID.Add(1)
	if id == 2 {
		rt.Log().SetFlag(shmlog.FlagMultithread)
	}
	t := &Thread{rt: rt, id: id, unbatched: rt.unbatched}
	rt.threadsMu.Lock()
	rt.threads = append(rt.threads, t)
	rt.threadsMu.Unlock()
	return t
}

// Flush releases the reserved-but-unfilled log slots of every registered
// thread and pushes their masked tallies (see Thread.Flush). It is safe to
// call while application threads are still probing — under batching the
// per-thread busy handshake makes a straggler racing with its own flush
// either record first or have its event dropped — but it is meant for
// quiescence points: the recorder calls it at Stop so trailing reserved
// slots of batched blocks are released rather than left as permanent holes.
func (rt *Runtime) Flush() {
	for _, t := range rt.snapshotThreads() {
		t.Flush()
	}
}

// FlushLog releases every registered thread's block if — and only if — that
// block still sits in old. The recorder calls it right after a rotation
// swaps old out, so the rotated segment is persisted with tombstones
// instead of the in-flight holes idle threads would otherwise leave until
// their next event; threads that already moved to the new segment are left
// untouched. Unbatched threads hold no blocks, so it does nothing for them.
func (rt *Runtime) FlushLog(old *shmlog.Log) {
	if old == nil || rt.unbatched {
		return
	}
	for _, t := range rt.snapshotThreads() {
		t.flushLog(old)
	}
}

func (rt *Runtime) snapshotThreads() []*Thread {
	rt.threadsMu.Lock()
	threads := make([]*Thread, len(rt.threads))
	copy(threads, rt.threads)
	rt.threadsMu.Unlock()
	return threads
}

// block is a thread's current reserved slot range in one log segment.
type block struct {
	log   *shmlog.Log
	shard int    // the log segment this thread's ID hashes onto
	next  uint64 // next slot to fill
	end   uint64 // one past the last usable reserved slot
	full  bool   // the segment was full at the last reservation attempt
}

// Thread is the per-application-thread probe handle. Enter/Exit/Span/record
// must only be called by the owning thread (it models a thread-local), but
// Flush may be called from any goroutine: under batching the busy flag
// below serializes cross-goroutine block maintenance against an in-flight
// probe; an unbatched thread has no block for a flush to touch.
type Thread struct {
	rt  *Runtime
	id  uint64
	blk block

	// unbatched caches Runtime.unbatched. Such a thread reserves and
	// commits one slot per event inside record and keeps no block
	// between calls (blk holds only its log and shard), so record guards
	// reentrancy with the owner-only inProbe flag instead of the busy
	// handshake, and Flush only drains the masked tally.
	unbatched bool
	inProbe   bool

	// Adaptive-probe state, owned exclusively by the probing thread — a
	// concurrent Flush touches only a batched blk (under busy) and the
	// atomic masked tally, never these fields, which is what lets the
	// suppressed fast path in record skip the reentrancy guard entirely.
	// ctl caches the log's control snapshot and ctlSrc the log it was read
	// from; the record path rereads it when the header's generation word
	// moves or the log was rotated. ctlActive short-circuits the
	// sampling/mask logic when the controls are all-default, keeping the
	// record-everything path identical to pre-sampling builds.
	ctl       shmlog.Controls
	ctlSrc    *shmlog.Log
	ctlActive bool
	// tick counts call events; at sampling period N, calls with
	// tick%N == 0 are sampled.
	tick uint64
	// depth and bits form the sampled-decision stack: bit depth of bits
	// remembers whether the open frame at that depth was recorded, so the
	// matching return makes the same decision and stacks stay balanced even
	// when the period or masks change mid-frame. Maintained unconditionally
	// (one index write per event) so toggling controls on mid-run finds
	// consistent state.
	depth int
	bits  []uint64
	// maskedLocal tallies suppressed events, flushed to the shared header
	// word in bulk (maskedFlushEvery) so suppression never pays a per-event
	// shared atomic add — that contention would defeat the point of
	// sampling. It is itself atomic (uncontended in steady state) because
	// the suppressed fast path increments it outside the busy guard while
	// Flush may be draining it.
	maskedLocal atomic.Uint64

	// busy is a batched thread's reentrancy guard (the paper's
	// no_instrument_function rule: injected code must never measure
	// itself) and, since block state must survive a concurrent Flush from
	// the recorder's Stop or rotation path, also the handshake that keeps
	// flushes from tearing blk under a straggling probe. Acquired with a
	// CAS on entry to record and to the flush paths; a probe that loses
	// the race to a concurrent flush drops its event, which is acceptable
	// at the stop/rotation boundaries where that race can occur.
	busy atomic.Bool
}

// maskedFlushEvery is how many locally-tallied suppressed events accumulate
// before a thread flushes them to the shared masked counter.
const maskedFlushEvery = 256

var _ Hooks = (*Thread)(nil)

// ID returns the thread's log-visible identifier.
func (t *Thread) ID() uint64 { return t.id }

// Enter records a function-entry event.
func (t *Thread) Enter(addr uint64) { t.record(shmlog.KindCall, addr) }

// Exit records a function-exit event.
func (t *Thread) Exit(addr uint64) { t.record(shmlog.KindReturn, addr) }

// Span records the entry event and returns a function that records the
// matching exit, for use as `defer th.Span(addr)()` — the Go shape of the
// injected enter/exit pair.
func (t *Thread) Span(addr uint64) func() {
	t.Enter(addr)
	return func() { t.Exit(addr) }
}

func (t *Thread) record(kind shmlog.Kind, addr uint64) {
	// The filter is immutable after New, so it needs no guard and runs
	// before everything else: filtered functions cost one map probe.
	if t.rt.filter != nil && !t.rt.filter.Allow(addr) {
		return
	}

	// The activation flag and event mask are honored per event, exactly
	// like shmlog.Append, so dynamic toggling works mid-block.
	log := t.rt.log.Load()
	flags := log.Flags()
	switch {
	case flags&shmlog.FlagActive == 0:
		return
	case kind == shmlog.KindCall && flags&shmlog.EventCall == 0,
		kind == shmlog.KindReturn && flags&shmlog.EventReturn == 0:
		return
	}

	// Suppressed fast path: when the cached control snapshot is current —
	// same log, same generation — and it says this event is sampled out or
	// masked, the probe returns before taking the reentrancy guard,
	// reserving a slot, or reading the counter. Everything it touches
	// (tick, the decision stack, the cached snapshot) is owned by the
	// probing thread; a concurrent Flush touches only a batched blk (under
	// busy) and the atomic masked tally. This is what makes high sampling
	// periods cheap: a suppressed pair costs a few thread-local loads
	// instead of a reservation and a commit. Recording decisions fall
	// through and are re-derived under the guard, which is also where
	// stale snapshots reload.
	if t.ctlActive && log == t.ctlSrc && log.CtlGen() == t.ctl.Gen {
		switch {
		case kind == shmlog.KindCall:
			if !t.decideCall(addr) {
				t.pushDecision(false)
				t.noteMasked(log)
				return
			}
		case t.depth > 0:
			if t.bits[(t.depth-1)>>6]&(1<<((t.depth-1)&63)) == 0 {
				t.depth--
				t.noteMasked(log)
				return
			}
		default:
			if t.ctl.Denies(t.id, addr) {
				t.noteMasked(log)
				return
			}
		}
	}

	// Reentrancy guard: a nested probe sees the flag and bails. An
	// unbatched thread owns nothing between calls that another goroutine
	// could release, so a plain owner-only flag suffices. A batched
	// thread's CAS on busy also keeps concurrent flushes off its block
	// (see Thread.busy); the flag lives on the thread-local handle, so the
	// CAS never contends in steady state.
	if t.unbatched {
		if t.inProbe {
			return
		}
		t.inProbe = true
	} else if !t.busy.CompareAndSwap(false, true) {
		return
	}

	// Block maintenance. A rotation (the runtime's log pointer moved)
	// releases the remainder of the block held in the old segment — the
	// persisted segment then carries tombstones instead of permanent
	// holes — before reserving from the new one. A rotation also reloads
	// the control snapshot (the next segment carries the controls over);
	// otherwise the generation word — on the same cache line as the flags
	// word loaded above — is compared per event and the snapshot rereads
	// only when a controller bumped it.
	if t.blk.log != log {
		t.releaseBlock()
		t.blk = block{log: log, shard: log.ShardOf(t.id)}
		t.reloadCtl(log)
	} else if log.CtlGen() != t.ctl.Gen {
		t.reloadCtl(log)
	}

	// Sampling and mask decision. The decision is taken at call entry and
	// pushed on the per-frame bit stack; the matching return pops it and
	// follows it, so recorded stacks stay balanced whatever the controls
	// did in between. With all-default controls every decision is "record",
	// and the log is byte-identical to a pre-sampling recording.
	suppress := false
	if kind == shmlog.KindCall {
		rec := !t.ctlActive || t.decideCall(addr)
		t.pushDecision(rec)
		suppress = !rec
	} else if t.depth > 0 {
		t.depth--
		suppress = t.bits[t.depth>>6]&(1<<(t.depth&63)) == 0
	} else if t.ctlActive {
		// An unmatched return (no open frame: recording toggled mid-call)
		// has no call-side decision to follow; suppress it only when the
		// masks deny it outright.
		suppress = t.ctl.Denies(t.id, addr)
	}
	if suppress {
		t.noteMasked(log)
		t.unlock()
		return
	}

	// An unbatched thread reserves exactly the slot it commits below; a
	// full segment (or a sealed one, see shmlog.Log.Seal) reserves none.
	var (
		slot uint64
		ok   bool
	)
	if t.unbatched {
		var n int
		slot, n = log.ReserveShard(t.blk.shard, 1)
		ok = n != 0
	} else {
		slot, ok = t.nextSlot(log)
	}
	if !ok {
		// Segment full: same accounting as the ErrFull path of Append.
		log.NoteDroppedShard(t.blk.shard, 1)
		t.rt.drops.Add(1)
		t.unlock()
		return
	}
	log.Commit(slot, shmlog.Entry{
		Kind:     kind,
		Counter:  t.rt.src.Now(),
		Addr:     addr,
		ThreadID: t.id,
	})
	t.unlock()
}

// unlock releases the reentrancy guard record took.
func (t *Thread) unlock() {
	if t.unbatched {
		t.inProbe = false
	} else {
		t.busy.Store(false)
	}
}

// nextSlot hands out the next slot of a batched thread's block, reserving
// a fresh block when the current one is used up; ok is false when the
// segment was full at the last reservation attempt. Called with busy held.
func (t *Thread) nextSlot(log *shmlog.Log) (slot uint64, ok bool) {
	if t.blk.next == t.blk.end && !t.blk.full {
		start, n := log.ReserveShard(t.blk.shard, t.rt.batch)
		if n == 0 {
			t.blk.full = true
		} else {
			t.blk.next, t.blk.end = start, start+uint64(n)
		}
	}
	if t.blk.next == t.blk.end {
		return 0, false
	}
	slot = t.blk.next
	t.blk.next++
	return slot, true
}

// acquire spins until it owns the busy flag. The guarded section never
// blocks (a handful of loads and stores), so the wait is bounded by one
// in-flight probe.
func (t *Thread) acquire() {
	for !t.busy.CompareAndSwap(false, true) {
		runtime.Gosched()
	}
}

// reloadCtl rereads the control snapshot from log (generation handshake in
// shmlog.Controls) and precomputes whether any control deviates from
// record-everything. Called under the reentrancy guard.
func (t *Thread) reloadCtl(log *shmlog.Log) {
	t.ctl = log.Controls()
	t.ctlSrc = log
	t.ctlActive = t.ctl.Period > 1 || t.ctl.ThreadMask != 0 || t.ctl.AddrHi > t.ctl.AddrLo
}

// decideCall reports whether the call event arriving at the current tick
// should be recorded under the cached controls. Pure read of owner-thread
// state; mutates nothing, so both the fast path and the guarded path can
// evaluate it and arrive at the same answer.
func (t *Thread) decideCall(addr uint64) bool {
	if p := t.ctl.Period; p > 1 && t.tick%p != 0 {
		return false
	}
	return !t.ctl.Denies(t.id, addr)
}

// pushDecision advances the call tick and pushes the record/suppress
// decision for the opening frame onto the per-frame bit stack, where the
// matching return will find it. Owner-thread state only.
func (t *Thread) pushDecision(rec bool) {
	t.tick++
	w, b := t.depth>>6, uint64(1)<<(t.depth&63)
	if w == len(t.bits) {
		t.bits = append(t.bits, 0)
	}
	if rec {
		t.bits[w] |= b
	} else {
		t.bits[w] &^= b
	}
	t.depth++
}

// noteMasked tallies one suppressed event and flushes the tally to the
// shared header word in bulk. Runs outside the reentrancy guard on the fast
// path; the swap keeps a concurrent flushMasked from losing or
// double-counting.
func (t *Thread) noteMasked(log *shmlog.Log) {
	if t.maskedLocal.Add(1) < maskedFlushEvery {
		return
	}
	if n := t.maskedLocal.Swap(0); n != 0 {
		log.NoteMasked(n)
		t.rt.masked.Add(n)
	}
}

// flushMasked pushes the thread's local suppressed-event tally to the
// shared counter. The swap makes it safe against the owner's noteMasked.
func (t *Thread) flushMasked() {
	if n := t.maskedLocal.Swap(0); n != 0 {
		t.rt.log.Load().NoteMasked(n)
		t.rt.masked.Add(n)
	}
}

// releaseBlock tombstones the unfilled remainder of the current block.
func (t *Thread) releaseBlock() {
	for s := t.blk.next; s < t.blk.end; s++ {
		t.blk.log.Release(s)
	}
	t.blk.next = t.blk.end
}

// Flush releases (tombstones) the reserved-but-unfilled slots of the
// thread's current block, so readers see them as dismissed instead of
// still-in-flight holes. Call it when the thread stops producing events —
// at workload completion, before a log Reset, or implicitly via
// Runtime.Flush at recorder stop. It is safe to call from any goroutine:
// the busy handshake serializes it against an in-flight probe of the
// owning thread (which afterwards simply reserves a fresh block). An
// unbatched thread holds no block, so Flush only drains its masked tally.
func (t *Thread) Flush() {
	if t.unbatched {
		t.flushMasked()
		return
	}
	t.acquire()
	t.releaseBlock()
	t.blk = block{}
	t.flushMasked()
	t.busy.Store(false)
}

// flushLog releases the thread's block only if it belongs to old, leaving
// a block already reserved in a newer segment alone (see Runtime.FlushLog).
func (t *Thread) flushLog(old *shmlog.Log) {
	t.acquire()
	if t.blk.log == old {
		t.releaseBlock()
		t.blk = block{}
	}
	t.busy.Store(false)
}

// Filter implements selective code profiling: only functions whose
// addresses were selected are recorded.
type Filter struct {
	allow map[uint64]struct{}
}

// NewFilter selects every symbol in tab for which pred returns true. The
// profiler anchor is never instrumented and is excluded automatically.
func NewFilter(tab *symtab.Table, pred func(symtab.Symbol) bool) (*Filter, error) {
	if tab == nil {
		return nil, errors.New("probe: nil symbol table")
	}
	if pred == nil {
		return nil, errors.New("probe: nil predicate")
	}
	f := &Filter{allow: make(map[uint64]struct{})}
	for _, s := range tab.Symbols() {
		if s.Name == symtab.ProfilerAnchorName {
			continue
		}
		if pred(s) {
			f.allow[s.Addr] = struct{}{}
		}
	}
	return f, nil
}

// NewFilterAddrs selects an explicit address set.
func NewFilterAddrs(addrs []uint64) *Filter {
	f := &Filter{allow: make(map[uint64]struct{}, len(addrs))}
	for _, a := range addrs {
		f.allow[a] = struct{}{}
	}
	return f
}

// Allow reports whether addr is selected for recording.
func (f *Filter) Allow(addr uint64) bool {
	_, ok := f.allow[addr]
	return ok
}

// Size returns how many functions are selected.
func (f *Filter) Size() int { return len(f.allow) }

// String describes the filter for logs.
func (f *Filter) String() string {
	return fmt.Sprintf("filter(%d funcs)", len(f.allow))
}
