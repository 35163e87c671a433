// Package shmlog implements the TEE-Perf shared-memory log (Figure 2 of the
// paper): a fixed-capacity, append-only event log designed to be mapped into
// untrusted host memory and written lock-free from inside a trusted
// execution environment.
//
// The log consists of a padded header followed by one or more entry
// segments (shards). Writers reserve entry slots with a single atomic
// fetch-and-add on their segment's tail index — one slot (Append) or a
// contiguous block of slots (Reserve/ReserveShard, the batched fast path) —
// and then own those slots exclusively, so no locks are required and
// per-thread event order is preserved (the property the analyzer relies
// on).
//
// The entry region is sharded: each segment owns an independent tail word
// on its own 64-byte cache line, and threads are hashed onto segments by
// thread ID, so writer threads on different shards never touch the same
// line. A single-shard log has one tail and one entry region, behind one
// segment header between the main header and the entries:
//
//	line 0 (bytes   0..63):  magic, version, pid, capacity, profiler addr,
//	                         creator pid, attach gen, shard count
//	                         — written once at setup, read-mostly.
//	line 1 (bytes  64..127): flags plus the adaptive-probe control words —
//	                         sample period, control generation, thread and
//	                         address deny masks — read by every probe,
//	                         written rarely by the controlling side.
//	line 2 (bytes 128..191): legacy tail slot (persisted total), dropped
//	                         counter, masked-event counter, configured
//	                         batch size (cold: touched only on overflow
//	                         or once at probe setup).
//	line 3 (bytes 192..255): counter — the software-counter thread's
//	                         tight-loop increment word.
//	byte 256: segment 0 header (one cache line: tail, capacity, dropped),
//	          then segment 0's entries, then segment 1's header, ...
//
// Per-segment capacities are padded so every segment header — and therefore
// every tail word — starts on a 64-byte cache-line boundary.
//
// Readers merge the segments back into one stream: Entry/Entries/the
// Cursor enumerate reserved slots segment-major (each thread lives on
// exactly one segment, so per-thread order is intact), and Read merges
// persisted segments by the global counter value, so analyzer output is
// byte-identical to a single-segment recording of the same events.
//
// On Linux and macOS the same layout can back a real cross-process shared
// region: CreateFile / OpenFile lay the header and segments over a
// MAP_SHARED file mapping, so a recorder process and the instrumented
// application each map the file and communicate through the header's
// handshake words (creator PID, attach generation, recorder-ready flag)
// exactly as the paper's Stage 2 native recorder shares memory with the
// TEE. Everything above the word array — probes, cursors, recovery — works
// unchanged on a mapped log.
package shmlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"teeperf/internal/runmerge"
)

// Layout constants. The on-disk representation is little-endian 64-bit
// words matching the in-memory word layout exactly.
const (
	// HeaderWords is the number of 64-bit words in the main header: four
	// 64-byte cache lines.
	HeaderWords = 32
	// SegHeaderWords is the number of 64-bit words in a version-3 segment
	// header (one cache line): tail, capacity, dropped, five reserved.
	SegHeaderWords = 8
	// EntryWords is the number of 64-bit words per log entry:
	// word 0: kind bit (bit 63) | counter value (bits 62..0)
	// word 1: call/return target address
	// word 2: thread ID (stored last: the commit marker)
	EntryWords = 3

	// HeaderSize, SegHeaderSize and EntrySize are the byte sizes of the
	// corresponding structures in the persisted format.
	HeaderSize    = HeaderWords * 8
	SegHeaderSize = SegHeaderWords * 8
	EntrySize     = EntryWords * 8

	// Magic identifies a persisted TEE-Perf log ("TEEPERF1").
	Magic uint64 = 0x5445455045524631

	// Version is the log structure version: the sharded-segment layout.
	// It is the only version Read and ReadLenient accept.
	Version uint64 = 3

	// MaxShards bounds the shard count of one log. The probe runtime hashes
	// thread IDs onto shards, so more shards than plausible threads is
	// pure memory overhead; the bound also caps what decoders trust from a
	// (possibly corrupt) header.
	MaxShards = 1 << 12
)

// Header word indexes of the main header. The mutable words —
// flags, counter — each sit on their own cache line (8 words apart); the
// remaining words of each line are reserved padding, persisted as zero.
//
// File-backed (mmap) logs additionally use three handshake slots for the
// cross-process attach protocol: the creator PID and attach generation live
// in line 0 (written at setup / bumped once per attach), the recorder-ready
// flag is a bit in the flags word, and the dropped-event counter sits on
// line 2 (drops happen on the reservation path, and only when a segment is
// already full). All four persist as zero through WriteTo — they are
// runtime coordination state, not part of the recorded measurement.
//
// Since version 3 the per-writer tails live in the segment headers;
// wordTail only carries the total reserved length in persisted streams
// (zero in live logs).
const (
	wordMagic        = 0
	wordVersion      = 1
	wordPID          = 2
	wordCapacity     = 3
	wordProfilerAddr = 4
	wordCreatorPID   = 5 // attach handshake: PID of the creating process
	wordAttachGen    = 6 // attach handshake: bumped once per OpenFile
	wordShards       = 7 // segment (shard) count, >= 1
	wordFlags        = 8 // cache line 1

	// Adaptive-probe control words. They share cache line 1 with the flags
	// word, which every probe already loads per event, so the per-event
	// generation check is effectively free. The controlling side (recorder,
	// monitor, fleet agent) writes the value words first and bumps the
	// generation word last; probes reread the values when they observe the
	// generation change (see Controls). All deny semantics: zero means
	// "record everything", so legacy writers and period-1 logs behave
	// byte-identically to pre-sampling builds.
	wordSamplePeriod = 9  // record 1-in-N call pairs; 0 and 1 mean every pair
	wordCtlGen       = 10 // control generation: bumped after every mask write
	wordThreadMask   = 11 // deny bitmask over (tid-1)%64; all-ones stops all threads
	wordAddrMaskLo   = 12 // deny address range [lo, hi): suppressed when hi > lo
	wordAddrMaskHi   = 13

	wordTail      = 16 // persisted total (cache line 2)
	wordDropped   = 17 // drop counter (cold: touched only when full)
	wordMasked    = 18 // events suppressed by sampling/masks (cold, flushed in bulk)
	wordBatchSize = 19 // configured probe batch, stored once when > 1 (0 reads as 1)
	wordCounter   = 24 // cache line 3
)

// Segment-header word offsets (relative to the segment's first word). Each
// live segment tail is fetch-and-added by the writers hashed onto that
// segment; capacity is written once at setup; dropped counts events lost
// because this segment was full; sealed holds the reserved length Seal
// froze (in memory only: it persists as zero).
const (
	segWordTail     = 0
	segWordCapacity = 1
	segWordDropped  = 2
	segWordSealed   = 3
)

// sealBit marks a sealed segment's tail word. It sits far above any
// capacity, so every fetch-and-add after Seal lands past the capacity and
// reports the segment full, and no run of such adds can carry out of it.
const sealBit = 1 << 62

// Flag bits stored in the header flags word. Flags may be toggled while the
// measured application runs; all access is atomic so toggling introduces no
// critical section into the measured execution.
const (
	// FlagActive enables recording. Probes drop events while it is clear.
	FlagActive uint64 = 1 << 0
	// FlagMultithread marks a log produced by a multi-threaded run.
	FlagMultithread uint64 = 1 << 1

	// EventCall / EventReturn select which event kinds are recorded.
	EventCall   uint64 = 1 << 2
	EventReturn uint64 = 1 << 3

	// FlagRecorderReady is the attach-handshake bit: the hosting recorder
	// process sets it once its counter thread is running, so an attaching
	// application knows the shared counter word is live before it starts
	// sampling (cross-process mode).
	FlagRecorderReady uint64 = 1 << 4

	// FlagSampled marks a log recorded (at least partly) with a sampling
	// period above 1: folded weights must be scaled by the period word to
	// estimate the full profile.
	FlagSampled uint64 = 1 << 5

	// EventMask covers all event-selection bits.
	EventMask = EventCall | EventReturn
)

// TombstoneTID is the thread-ID word of a reserved slot that was released
// without being committed (a batched writer's unused trailing slots).
// Readers dismiss tombstoned slots. Real thread IDs start at 1 and are
// assigned sequentially, so neither 0 (in-flight) nor TombstoneTID ever
// collides with a committed entry.
const TombstoneTID = ^uint64(0)

// Kind distinguishes call and return entries.
type Kind uint8

// Entry kinds. KindCall is recorded by the function-entry probe,
// KindReturn by the function-exit probe.
const (
	KindCall Kind = iota + 1
	KindReturn
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindCall:
		return "call"
	case KindReturn:
		return "return"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

const (
	kindBit     = uint64(1) << 63
	counterMask = kindBit - 1
)

// bulkBufSize is the scratch-buffer size shared by WriteTo and Read: big
// enough to amortize Write/Read syscalls, small enough to stay cache- and
// stack-friendly.
const bulkBufSize = 64 * 1024

// Sync selects the slot-reservation strategy. The paper designs the log for
// lock-free atomic access but explicitly does not rely on atomics being
// available; SyncMutex is the portable fallback (and the A1 ablation
// baseline).
type Sync int

// Synchronization modes.
const (
	SyncAtomic Sync = iota + 1
	SyncMutex
)

// Errors returned by log operations.
var (
	// ErrFull is returned by Append once all slots are used.
	ErrFull = errors.New("shmlog: log full")
	// ErrInactive is returned by Append when FlagActive is clear.
	ErrInactive = errors.New("shmlog: recording inactive")
	// ErrFiltered is returned by Append when the entry kind is masked out.
	ErrFiltered = errors.New("shmlog: event kind filtered")
	// ErrBadMagic is returned when decoding a non-TEE-Perf stream.
	ErrBadMagic = errors.New("shmlog: bad magic")
	// ErrBadVersion is returned when decoding an unsupported log version.
	ErrBadVersion = errors.New("shmlog: unsupported log version")
	// ErrBadShards is returned when a version-3 stream carries an
	// implausible shard count.
	ErrBadShards = errors.New("shmlog: implausible shard count")
	// ErrTruncated is returned when a persisted log ends prematurely.
	ErrTruncated = errors.New("shmlog: truncated log")
	// ErrEmptyLog is returned by Read for a zero-byte input. It wraps
	// ErrTruncated, so existing errors.Is(err, ErrTruncated) checks keep
	// matching.
	ErrEmptyLog = fmt.Errorf("%w: empty (zero-byte) input", ErrTruncated)
	// ErrTruncatedHeader is returned by Read when the input ends inside
	// the header — shorter than any valid log can be. It wraps
	// ErrTruncated.
	ErrTruncatedHeader = fmt.Errorf("%w: incomplete header", ErrTruncated)
	// ErrRange is returned when an entry index is out of bounds.
	ErrRange = errors.New("shmlog: entry index out of range")
	// ErrMmapUnsupported is returned by CreateFile/OpenFile on platforms
	// without shared file-backed mappings; callers fall back to the
	// in-process heap log.
	ErrMmapUnsupported = errors.New("shmlog: file-backed shared mapping not supported on this platform")
	// ErrMapped is returned for operations invalid on a file-backed log
	// (e.g. unsupported sync modes).
	ErrMapped = errors.New("shmlog: invalid operation on mapped log")
)

// Entry is one decoded log record (Figure 2 (b)).
type Entry struct {
	// Kind reports whether the probe observed a call or a return.
	Kind Kind
	// Counter is the 63-bit counter value sampled by the probe.
	Counter uint64
	// Addr is the call/return target address (a virtual text address
	// resolvable through the symbol table).
	Addr uint64
	// ThreadID identifies the application thread that wrote the entry.
	ThreadID uint64
}

// Log is the shared-memory log region. It is safe for concurrent use by any
// number of writers and readers.
type Log struct {
	words []uint64
	sync  Sync
	mu    sync.Mutex // used only in SyncMutex mode

	// shards/segCap mirror the header's shard count and the (uniform)
	// per-segment capacity; they are fixed at setup and cached here so the
	// hot paths never re-derive them from header words.
	shards int
	segCap int

	// mapped/file/path are set only for file-backed logs (CreateFile /
	// OpenFile): words then aliases the MAP_SHARED byte region, so every
	// atomic store is visible to other processes mapping the same file.
	mapped []byte
	file   *os.File
	path   string

	// readOnly marks an observer mapping (ObserveFile): PROT_READ only, so
	// any store to the shared region would fault. Observers must restrict
	// themselves to loads — cursors, header accessors, stats.
	readOnly bool
}

// Option configures New.
type Option interface {
	apply(*options)
}

type options struct {
	pid          uint64
	profilerAddr uint64
	sync         Sync
	flags        uint64
	shards       int
	samplePeriod uint64
}

type pidOption uint64

func (o pidOption) apply(opts *options) { opts.pid = uint64(o) }

// WithPID records the process ID of the profiled application in the header
// so the analyzer can tell multiple runs apart.
func WithPID(pid uint64) Option { return pidOption(pid) }

type profilerAddrOption uint64

func (o profilerAddrOption) apply(opts *options) { opts.profilerAddr = uint64(o) }

// WithProfilerAddr records the in-memory address of the well-known profiler
// anchor function, letting the analyzer compute the relocation offset of
// position-independent code.
func WithProfilerAddr(addr uint64) Option { return profilerAddrOption(addr) }

type syncOption Sync

func (o syncOption) apply(opts *options) { opts.sync = Sync(o) }

// WithSync selects the slot reservation strategy (default SyncAtomic).
func WithSync(s Sync) Option { return syncOption(s) }

type flagsOption uint64

func (o flagsOption) apply(opts *options) { opts.flags = uint64(o) }

// WithFlags sets the initial header flags. The default enables recording of
// both calls and returns with the log active.
func WithFlags(flags uint64) Option { return flagsOption(flags) }

type shardsOption int

func (o shardsOption) apply(opts *options) { opts.shards = int(o) }

type samplePeriodOption uint64

func (o samplePeriodOption) apply(opts *options) { opts.samplePeriod = uint64(o) }

// WithSamplePeriod sets the initial sampling period: probes record 1-in-n
// call pairs. 0 and 1 both mean "record every pair" (the default) and leave
// the log byte-identical to an unsampled recording; n > 1 additionally sets
// FlagSampled so analyzers know to scale folded weights by n.
func WithSamplePeriod(n uint64) Option { return samplePeriodOption(n) }

// WithShards splits the entry region into n independent segments, each with
// its own cache-line-aligned tail, and hashes writer threads onto them by
// thread ID — removing the single contended fetch-and-add word that caps
// multi-writer append throughput. The default (n = 1) keeps one segment.
//
// The per-segment capacity is the requested capacity divided by n, rounded
// up so every segment stays cache-line aligned; Capacity reports the actual
// (possibly rounded-up) total.
func WithShards(n int) Option { return shardsOption(n) }

// segCapFor splits capacity over shards: ceil-divided, then padded to a
// multiple of 8 entries so each segment's byte length (SegHeaderSize +
// segCap*EntrySize) is a multiple of 64 — keeping every segment header, and
// therefore every tail word, on its own cache-line boundary. Single-shard
// logs skip the padding: nothing follows the only segment, and tests and
// callers rely on New(n) holding exactly n entries.
func segCapFor(capacity, shards int) int {
	segCap := (capacity + shards - 1) / shards
	if shards > 1 {
		segCap = (segCap + 7) &^ 7
	}
	return segCap
}

// New allocates a log with room for capacity entries.
func New(capacity int, opts ...Option) (*Log, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("shmlog: capacity must be positive, got %d", capacity)
	}
	o := options{
		sync:   SyncAtomic,
		flags:  FlagActive | EventCall | EventReturn,
		shards: 1,
	}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.sync != SyncAtomic && o.sync != SyncMutex {
		return nil, fmt.Errorf("shmlog: unknown sync mode %d", o.sync)
	}
	if o.shards < 1 || o.shards > MaxShards {
		return nil, fmt.Errorf("%w: %d (want 1..%d)", ErrBadShards, o.shards, MaxShards)
	}
	segCap := segCapFor(capacity, o.shards)
	total := segCap * o.shards
	l := &Log{
		words:  make([]uint64, HeaderWords+o.shards*(SegHeaderWords+segCap*EntryWords)),
		sync:   o.sync,
		shards: o.shards,
		segCap: segCap,
	}
	l.words[wordMagic] = Magic
	l.words[wordVersion] = Version
	l.words[wordPID] = o.pid
	l.words[wordCapacity] = uint64(total)
	l.words[wordProfilerAddr] = o.profilerAddr
	l.words[wordShards] = uint64(o.shards)
	l.words[wordFlags] = o.flags
	l.words[wordSamplePeriod] = o.samplePeriod
	if o.samplePeriod > 1 {
		l.words[wordFlags] |= FlagSampled
	}
	for s := 0; s < o.shards; s++ {
		l.words[l.segHeaderIdx(s)+segWordCapacity] = uint64(segCap)
	}
	return l, nil
}

// segWords is the stride of one segment (header plus entries) in words.
func (l *Log) segWords() int { return SegHeaderWords + l.segCap*EntryWords }

// segHeaderIdx returns the word index of segment s's header.
func (l *Log) segHeaderIdx(s int) int { return HeaderWords + s*l.segWords() }

// segEntryIdx returns the word index of local entry slot i of segment s.
func (l *Log) segEntryIdx(s, i int) int {
	return l.segHeaderIdx(s) + SegHeaderWords + i*EntryWords
}

// slotWordIdx returns the word index of the global slot id (segment-strided:
// slot = segment*segCap + local).
func (l *Log) slotWordIdx(slot uint64) int {
	if l.shards == 1 {
		return HeaderWords + SegHeaderWords + int(slot)*EntryWords
	}
	s := int(slot) / l.segCap
	return l.segEntryIdx(s, int(slot)%l.segCap)
}

// segTail returns segment s's raw tail word, or the reserved length Seal
// froze once the segment is sealed.
func (l *Log) segTail(s int) uint64 {
	h := l.segHeaderIdx(s)
	t := atomic.LoadUint64(&l.words[h+segWordTail])
	if t&sealBit != 0 {
		return atomic.LoadUint64(&l.words[h+segWordSealed])
	}
	return t
}

// segLen returns segment s's reserved length, clamped to the segment
// capacity.
func (l *Log) segLen(s int) int {
	t := l.segTail(s)
	if c := uint64(l.segCap); t > c {
		t = c
	}
	return int(t)
}

// Shards returns the number of independent entry segments.
func (l *Log) Shards() int { return l.shards }

// ShardOf returns the segment a writer thread with the given ID reserves
// from. The mapping is deterministic — a thread always lands on the same
// segment — which is what keeps per-thread order intact under the
// segment-major readers.
func (l *Log) ShardOf(tid uint64) int {
	if l.shards == 1 {
		return 0
	}
	return int(tid % uint64(l.shards))
}

// SegmentStat is one segment's live accounting, surfaced per shard by the
// monitor and the fleet agent.
type SegmentStat struct {
	// Tail is the segment's raw tail word (may transiently exceed Capacity
	// by in-flight overshoot under overload; see ReserveShard), or the
	// frozen reserved length once the segment is sealed (see Seal).
	Tail uint64
	// Capacity is the segment's slot count.
	Capacity uint64
	// Dropped counts events lost because this segment was full.
	Dropped uint64
}

// SegmentStats snapshots every segment's tail, capacity and drop counter.
func (l *Log) SegmentStats() []SegmentStat {
	out := make([]SegmentStat, l.shards)
	for s := 0; s < l.shards; s++ {
		h := l.segHeaderIdx(s)
		out[s] = SegmentStat{
			Tail:     l.segTail(s),
			Capacity: atomic.LoadUint64(&l.words[h+segWordCapacity]),
			Dropped:  atomic.LoadUint64(&l.words[h+segWordDropped]),
		}
	}
	return out
}

// Capacity returns the maximum number of entries the log can hold. The
// capacity is fixed at setup and immutable afterwards (per the paper), but
// it is read on the Append fast path next to atomically-written words, so
// the load is atomic to keep the race detector (and weaker memory models)
// satisfied.
func (l *Log) Capacity() int { return int(atomic.LoadUint64(&l.words[wordCapacity])) }

// PID returns the recorded process ID.
func (l *Log) PID() uint64 { return atomic.LoadUint64(&l.words[wordPID]) }

// SetPID records the process ID of the profiled application. In
// cross-process mode the recorder creates the mapping before the
// application exists, so the attaching process stamps its own PID here.
func (l *Log) SetPID(pid uint64) { atomic.StoreUint64(&l.words[wordPID], pid) }

// Version returns the log structure version of the in-memory layout.
func (l *Log) Version() uint64 { return atomic.LoadUint64(&l.words[wordVersion]) }

// ProfilerAddr returns the recorded profiler anchor address.
func (l *Log) ProfilerAddr() uint64 { return atomic.LoadUint64(&l.words[wordProfilerAddr]) }

// SetProfilerAddr records the profiler anchor address. It is written by the
// recorder during setup, before any probes run.
func (l *Log) SetProfilerAddr(addr uint64) { atomic.StoreUint64(&l.words[wordProfilerAddr], addr) }

// Flags returns the current header flags (atomic).
func (l *Log) Flags() uint64 { return atomic.LoadUint64(&l.words[wordFlags]) }

// SetFlag sets the given flag bits atomically while the application runs.
//
// Go 1.22 has no atomic.OrUint64 (it arrived in Go 1.23), so a read-
// modify-write of the flags word must be a CompareAndSwap retry loop. Flag
// toggles come from a single control goroutine in practice, so the first
// CAS — or no write at all, when the bits are already set — is the common
// case; the loop only spins under a concurrent toggle.
func (l *Log) SetFlag(bits uint64) {
	old := atomic.LoadUint64(&l.words[wordFlags])
	if old&bits == bits {
		return // already set: no write, no cache-line bounce
	}
	if atomic.CompareAndSwapUint64(&l.words[wordFlags], old, old|bits) {
		return // uncontended single-caller fast path
	}
	for {
		old = atomic.LoadUint64(&l.words[wordFlags])
		if old&bits == bits {
			return
		}
		if atomic.CompareAndSwapUint64(&l.words[wordFlags], old, old|bits) {
			return
		}
	}
}

// ClearFlag clears the given flag bits atomically. Same CAS-loop rationale
// as SetFlag (no atomic.AndUint64 before Go 1.23).
func (l *Log) ClearFlag(bits uint64) {
	old := atomic.LoadUint64(&l.words[wordFlags])
	if old&bits == 0 {
		return // already clear
	}
	if atomic.CompareAndSwapUint64(&l.words[wordFlags], old, old&^bits) {
		return
	}
	for {
		old = atomic.LoadUint64(&l.words[wordFlags])
		if old&bits == 0 {
			return
		}
		if atomic.CompareAndSwapUint64(&l.words[wordFlags], old, old&^bits) {
			return
		}
	}
}

// Active reports whether recording is enabled.
func (l *Log) Active() bool { return l.Flags()&FlagActive != 0 }

// SetActive toggles the active flag.
func (l *Log) SetActive(active bool) {
	if active {
		l.SetFlag(FlagActive)
	} else {
		l.ClearFlag(FlagActive)
	}
}

// CreatorPID returns the PID of the process that created a file-backed log
// (zero for heap logs). An attaching process uses it to confirm it is
// talking to a live recorder, not a stale file.
func (l *Log) CreatorPID() uint64 { return atomic.LoadUint64(&l.words[wordCreatorPID]) }

// AttachGen returns the attach generation: how many times OpenFile has
// mapped this log. The creator observes it rise when the application
// attaches; tests assert on it.
func (l *Log) AttachGen() uint64 { return atomic.LoadUint64(&l.words[wordAttachGen]) }

// Ready reports whether the hosting recorder has marked its counter thread
// live (FlagRecorderReady).
func (l *Log) Ready() bool { return l.Flags()&FlagRecorderReady != 0 }

// SetReady toggles the recorder-ready handshake bit. The hosting recorder
// sets it in Start (after the counter thread is running) and clears it in
// Stop.
func (l *Log) SetReady(ready bool) {
	if ready {
		l.SetFlag(FlagRecorderReady)
	} else {
		l.ClearFlag(FlagRecorderReady)
	}
}

// WaitReady blocks until the recorder-ready bit is set or the timeout
// elapses, polling the shared flags word. It returns true when the bit was
// observed set. An attaching application calls this before sampling so its
// first events carry live counter values.
func (l *Log) WaitReady(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if l.Ready() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Controls is a consistent snapshot of the adaptive-probe control words:
// the sampling period and the deny masks, tagged with the generation they
// were read at. All fields use deny semantics — the zero value records
// everything.
type Controls struct {
	// Gen is the control generation the snapshot was taken at. Probes cache
	// it and reread the snapshot when the header's generation differs.
	Gen uint64
	// Period is the sampling period: record 1-in-Period call pairs. 0 and 1
	// both mean every pair.
	Period uint64
	// ThreadMask is a deny bitmask over (tid-1)%64: a set bit suppresses
	// recording for threads hashing onto it. All-ones stops every thread.
	ThreadMask uint64
	// AddrLo/AddrHi deny the address range [AddrLo, AddrHi); the range is
	// active only when AddrHi > AddrLo.
	AddrLo, AddrHi uint64
}

// Denies reports whether the snapshot suppresses the given thread/address.
func (c Controls) Denies(tid, addr uint64) bool {
	if c.ThreadMask != 0 && c.ThreadMask&(1<<((tid-1)%64)) != 0 {
		return true
	}
	return c.AddrHi > c.AddrLo && addr >= c.AddrLo && addr < c.AddrHi
}

// CtlGen returns the current control generation. Probes compare it against
// their cached snapshot's Gen on every event (the word shares a cache line
// with flags, so the extra load is effectively free) and call Controls again
// when it moved.
func (l *Log) CtlGen() uint64 { return atomic.LoadUint64(&l.words[wordCtlGen]) }

// Controls reads a consistent snapshot of the control words using the
// generation handshake: read the generation, read the values, reread the
// generation, and retry if a writer bumped it in between. Writers bump the
// generation only after all value words are stored, so a stable generation
// brackets a consistent value set.
func (l *Log) Controls() Controls {
	for {
		gen := atomic.LoadUint64(&l.words[wordCtlGen])
		c := Controls{
			Gen:        gen,
			Period:     atomic.LoadUint64(&l.words[wordSamplePeriod]),
			ThreadMask: atomic.LoadUint64(&l.words[wordThreadMask]),
			AddrLo:     atomic.LoadUint64(&l.words[wordAddrMaskLo]),
			AddrHi:     atomic.LoadUint64(&l.words[wordAddrMaskHi]),
		}
		if atomic.LoadUint64(&l.words[wordCtlGen]) == gen {
			return c
		}
	}
}

// bumpCtlGen publishes a control-word change: value stores above must
// already be visible (they are atomic stores on the same cache line).
func (l *Log) bumpCtlGen() { atomic.AddUint64(&l.words[wordCtlGen], 1) }

// SamplePeriod returns the live sampling period word (0 or 1: every pair).
func (l *Log) SamplePeriod() uint64 { return atomic.LoadUint64(&l.words[wordSamplePeriod]) }

// SetSamplePeriod changes the sampling period live: probes pick it up on the
// next generation check. Periods above 1 set FlagSampled (sticky — once any
// part of the log was sampled, analyzers must scale); 0 and 1 restore
// record-everything without clearing the flag.
func (l *Log) SetSamplePeriod(n uint64) {
	atomic.StoreUint64(&l.words[wordSamplePeriod], n)
	if n > 1 {
		l.SetFlag(FlagSampled)
	}
	l.bumpCtlGen()
}

// ThreadMask returns the live thread deny-mask word.
func (l *Log) ThreadMask() uint64 { return atomic.LoadUint64(&l.words[wordThreadMask]) }

// SetThreadMask replaces the thread deny-mask: bit (tid-1)%64 suppresses the
// matching threads, all-ones stops every thread, zero records everything.
func (l *Log) SetThreadMask(mask uint64) {
	atomic.StoreUint64(&l.words[wordThreadMask], mask)
	l.bumpCtlGen()
}

// AddrMask returns the live address deny-range [lo, hi) (inactive unless
// hi > lo).
func (l *Log) AddrMask() (lo, hi uint64) {
	return atomic.LoadUint64(&l.words[wordAddrMaskLo]), atomic.LoadUint64(&l.words[wordAddrMaskHi])
}

// SetAddrMask replaces the address deny-range: events whose target address
// falls in [lo, hi) are suppressed. lo == hi (e.g. both zero) disables the
// range.
func (l *Log) SetAddrMask(lo, hi uint64) {
	atomic.StoreUint64(&l.words[wordAddrMaskLo], lo)
	atomic.StoreUint64(&l.words[wordAddrMaskHi], hi)
	l.bumpCtlGen()
}

// CopyControls carries another log's control words (sampling period and
// deny masks) into this one with a single generation bump — the rotation
// path uses it so a live throttle survives segment rotation.
func (l *Log) CopyControls(from *Log) {
	c := from.Controls()
	atomic.StoreUint64(&l.words[wordSamplePeriod], c.Period)
	atomic.StoreUint64(&l.words[wordThreadMask], c.ThreadMask)
	atomic.StoreUint64(&l.words[wordAddrMaskLo], c.AddrLo)
	atomic.StoreUint64(&l.words[wordAddrMaskHi], c.AddrHi)
	if c.Period > 1 {
		l.SetFlag(FlagSampled)
	}
	l.bumpCtlGen()
}

// Masked returns how many events probes suppressed because of the sampling
// period or a deny mask. Like the drop counter it lives in a shared header
// word so cross-process observers see it; probes accumulate locally and
// flush in bulk, so the value trails the truth by at most one batch per
// thread.
func (l *Log) Masked() uint64 { return atomic.LoadUint64(&l.words[wordMasked]) }

// NoteMasked adds n to the shared masked-event counter.
func (l *Log) NoteMasked(n uint64) {
	if n != 0 {
		atomic.AddUint64(&l.words[wordMasked], n)
	}
}

// BatchSize returns the probe batch size mirrored into the header by
// probe.New (zero when the probe runs at the default batch of 1).
func (l *Log) BatchSize() uint64 { return atomic.LoadUint64(&l.words[wordBatchSize]) }

// SetBatchSize mirrors the probe runtime's configured batch size into the
// header so external observers (the fleet agent's read-only mapping) can
// export it without an in-process channel.
func (l *Log) SetBatchSize(n uint64) { atomic.StoreUint64(&l.words[wordBatchSize], n) }

// Mapped reports whether the log is a file-backed shared mapping.
func (l *Log) Mapped() bool { return l.mapped != nil }

// ReadOnly reports whether the log is a read-only observer mapping
// (ObserveFile). Mutating a read-only mapping faults; callers that might
// hold either kind check here first.
func (l *Log) ReadOnly() bool { return l.readOnly }

// Path returns the backing file path of a mapped log ("" for heap logs).
func (l *Log) Path() string { return l.path }

// Msync flushes the mapped region to the backing file (MS_SYNC). It is a
// no-op for heap logs and read-only observer mappings (which have nothing
// of their own to flush).
func (l *Log) Msync() error {
	if l.mapped == nil || l.readOnly {
		return nil
	}
	return msync(l.mapped)
}

// Close unmaps a file-backed log and closes the backing file. The words
// slice is repointed at a zeroed region covering the header and the segment
// headers (with zero segment capacity) first, so a straggler touching the
// log after Close reads harmless zeros (inactive, empty) instead of
// faulting on unmapped memory. Heap logs are unaffected. Close is not safe
// to call concurrently with writers still appending.
func (l *Log) Close() error {
	if l.mapped == nil {
		return nil
	}
	l.segCap = 0
	l.words = make([]uint64, HeaderWords+l.shards*SegHeaderWords)
	mapped := l.mapped
	l.mapped = nil
	err := munmap(mapped)
	if l.file != nil {
		if cerr := l.file.Close(); err == nil {
			err = cerr
		}
		l.file = nil
	}
	return err
}

// AddCounter atomically advances the header counter word by delta and
// returns the new value. The software counter thread calls this in its
// tight loop; the counter word owns a whole cache line, so the loop does
// not contend with tail reservations or flag reads.
func (l *Log) AddCounter(delta uint64) uint64 {
	return atomic.AddUint64(&l.words[wordCounter], delta)
}

// LoadCounter atomically reads the header counter word.
func (l *Log) LoadCounter() uint64 {
	return atomic.LoadUint64(&l.words[wordCounter])
}

// Tail returns the summed raw tail indexes of all segments. Reservation
// clamps each segment tail back to the segment capacity when writers race
// past the end, so the sum exceeds Capacity only transiently (by at most
// one in-flight batch per concurrently overflowing writer); Len clamps
// per segment.
func (l *Log) Tail() uint64 {
	var t uint64
	for s := 0; s < l.shards; s++ {
		t += l.segTail(s)
	}
	return t
}

// Len returns the number of reserved entry slots, summed over segments and
// clamped to each segment's capacity. With single-slot writers every
// reserved slot is committed; with batched writers (Reserve) reserved slots
// may still be in flight (zero thread-ID word) or released (TombstoneTID) —
// readers dismiss those.
func (l *Log) Len() int {
	n := 0
	for s := 0; s < l.shards; s++ {
		n += l.segLen(s)
	}
	return n
}

// Dropped returns how many entries were rejected because the log was full.
// The count lives in header word 17 (not a heap field) so that in
// cross-process mode the hosting recorder sees drops suffered by the
// attached application.
func (l *Log) Dropped() uint64 { return atomic.LoadUint64(&l.words[wordDropped]) }

// NoteDropped adds n to the global drop counter. Batched writers call it
// (via NoteDroppedShard) when an event arrives and no slot can be reserved,
// so drop accounting matches the single-slot Append path.
func (l *Log) NoteDropped(n uint64) { atomic.AddUint64(&l.words[wordDropped], n) }

// NoteDroppedShard charges n dropped events to one segment's counter as
// well as the global one, so per-shard overload is observable (the
// monitor's per-segment drop series).
func (l *Log) NoteDroppedShard(shard int, n uint64) {
	if shard >= 0 && shard < l.shards {
		atomic.AddUint64(&l.words[l.segHeaderIdx(shard)+segWordDropped], n)
	}
	atomic.AddUint64(&l.words[wordDropped], n)
}

// Reserve claims up to n contiguous entry slots from segment 0 — the whole
// log when unsharded. Sharded writers use ReserveShard with their thread's
// ShardOf segment; Reserve remains the single-segment compatibility path
// (and the recovery rebuild path).
func (l *Log) Reserve(n int) (start uint64, count int) {
	return l.ReserveShard(0, n)
}

// ReserveShard claims up to n contiguous entry slots in the given segment
// with a single fetch-and-add on that segment's tail, returning the first
// global slot id and the number of usable slots (0 when the segment is
// full). The caller owns slots [start, start+count) exclusively and must
// either Commit or Release every one of them; a slot left untouched is
// indistinguishable from an in-flight write and is dismissed by readers.
//
// When the fetch-and-add overshoots the segment capacity — the segment is
// full, or the batch straddles the end — the tail is parked back at the
// capacity with a CAS loop, so the shared tail word stays meaningful under
// sustained overload (readers, FillPercent and lenient recovery all clamp
// against capacity) instead of growing without bound. Between a writer's
// overshoot and its park, concurrent readers can observe the tail above
// the capacity by at most the sum of in-flight reservation batches.
func (l *Log) ReserveShard(shard, n int) (start uint64, count int) {
	if n <= 0 || shard < 0 || shard >= l.shards {
		return 0, 0
	}
	tailIdx := l.segHeaderIdx(shard) + segWordTail
	segCap := uint64(l.segCap)
	var local uint64
	if l.sync == SyncAtomic {
		local = atomic.AddUint64(&l.words[tailIdx], uint64(n)) - uint64(n)
		if local+uint64(n) > segCap {
			// Overload: park the tail at the capacity boundary. The CAS
			// only ever moves the word down to segCap — never below — so
			// reservations that did land usable slots stay accounted.
			// A sealed tail is left as it is: parking it would unseal it.
			for {
				t := atomic.LoadUint64(&l.words[tailIdx])
				if t <= segCap || t&sealBit != 0 ||
					atomic.CompareAndSwapUint64(&l.words[tailIdx], t, segCap) {
					break
				}
			}
		}
	} else {
		// The stores stay atomic even under the mutex so concurrent
		// atomic readers (Tail, Len, cursors) never mix a plain write
		// with an atomic load on the same word. The mutex serializes
		// reservations, so the tail can be clamped exactly — it never
		// overshoots at all in this mode.
		l.mu.Lock()
		local = atomic.LoadUint64(&l.words[tailIdx])
		end := local + uint64(n)
		if end > segCap {
			end = segCap
		}
		if end > local {
			atomic.StoreUint64(&l.words[tailIdx], end)
		}
		l.mu.Unlock()
	}
	if local >= segCap {
		return uint64(shard)*segCap + segCap, 0
	}
	usable := segCap - local
	if usable > uint64(n) {
		usable = uint64(n)
	}
	return uint64(shard)*segCap + local, int(usable)
}

// Seal freezes every segment at its current reserved length: reservations
// that land afterwards report the segment full (and the writer counts them
// as drops) instead of claiming slots past a length a persister may already
// have taken. The recorder seals a segment it has rotated out, so a probe
// that loaded the old log pointer just before the swap loses its event
// visibly rather than silently. Slots reserved before the seal stay in
// Len, WriteTo and cursors, committed or not. Reset unseals.
//
// Seal is for heap logs: on a shared mapping the sealed tail word would be
// visible to the other process too.
func (l *Log) Seal() {
	segCap := uint64(l.segCap)
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := 0; s < l.shards; s++ {
		h := l.segHeaderIdx(s)
		for {
			t := atomic.LoadUint64(&l.words[h+segWordTail])
			if t&sealBit != 0 {
				break
			}
			// The frozen length is stored before the CAS publishes the
			// seal bit, so a reader that sees the bit sees the length.
			atomic.StoreUint64(&l.words[h+segWordSealed], min(t, segCap))
			if atomic.CompareAndSwapUint64(&l.words[h+segWordTail], t, t|sealBit) {
				break
			}
		}
	}
}

// Commit writes e into a reserved slot the caller owns exclusively.
// Counter values are truncated to 63 bits; bit 63 carries the kind. The
// counter and address words are plain stores; the thread-ID word is stored
// atomically last and publishes them as the commit marker. Thread IDs are
// never zero (the probe runtime assigns IDs starting at 1), so a reader
// that loads a non-zero, non-tombstone marker sees the final counter and
// address words: the Go memory model orders them within the process, and
// the release store (XCHG on amd64, STLR on arm64) across processes.
// Readers take the two words only behind such a marker (slotWords); an
// entry committed with ThreadID 0 is never published and reads as zero
// words.
func (l *Log) Commit(slot uint64, e Entry) {
	base := l.slotWordIdx(slot)
	word0 := e.Counter & counterMask
	if e.Kind == KindReturn {
		word0 |= kindBit
	}
	l.words[base] = word0
	l.words[base+1] = e.Addr
	atomic.StoreUint64(&l.words[base+2], e.ThreadID)
}

// Release marks a reserved slot as permanently unused (tombstone). Batched
// writers release the trailing slots of a partially-filled block at flush,
// rotation or stop, so readers can tell "never coming" from "still in
// flight".
func (l *Log) Release(slot uint64) {
	base := l.slotWordIdx(slot)
	atomic.StoreUint64(&l.words[base+2], TombstoneTID)
}

// Append records one entry. It checks the active flag and the event mask,
// reserves a slot in the segment the entry's thread hashes onto
// (fetch-and-add in SyncAtomic mode), and commits the entry into the
// reserved slot, which it owns exclusively.
func (l *Log) Append(e Entry) error {
	flags := l.Flags()
	if flags&FlagActive == 0 {
		return ErrInactive
	}
	switch e.Kind {
	case KindCall:
		if flags&EventCall == 0 {
			return ErrFiltered
		}
	case KindReturn:
		if flags&EventReturn == 0 {
			return ErrFiltered
		}
	default:
		return fmt.Errorf("shmlog: invalid entry kind %d", e.Kind)
	}

	shard := l.ShardOf(e.ThreadID)
	slot, n := l.ReserveShard(shard, 1)
	if n == 0 {
		l.NoteDroppedShard(shard, 1)
		return ErrFull
	}
	l.Commit(slot, e)
	return nil
}

// readerSlot maps a reader index i (0 <= i < Len()) onto the word index of
// the i-th reserved slot in segment-major order: segment 0's reserved
// prefix, then segment 1's, and so on. Each thread's entries live in one
// segment in increasing slot order, so this enumeration preserves
// per-thread order — the only order downstream readers rely on.
func (l *Log) readerSlot(i int) (base int, ok bool) {
	if l.shards == 1 {
		if i >= l.segLen(0) {
			return 0, false
		}
		return HeaderWords + SegHeaderWords + i*EntryWords, true
	}
	for s := 0; s < l.shards; s++ {
		n := l.segLen(s)
		if i < n {
			return l.segEntryIdx(s, i), true
		}
		i -= n
	}
	return 0, false
}

// Entry decodes the entry at reader index i (segment-major over the
// reserved slots; identical to slot order on a single-segment log). Under
// batched writers a reserved slot may be in flight (ThreadID 0) or released
// (ThreadID TombstoneTID); Entry returns such a slot with zero counter and
// address words and the caller dismisses it (as Entries and the analyzer
// do).
func (l *Log) Entry(i int) (Entry, error) {
	if i < 0 {
		return Entry{}, fmt.Errorf("%w: %d (len %d)", ErrRange, i, l.Len())
	}
	base, ok := l.readerSlot(i)
	if !ok {
		return Entry{}, fmt.Errorf("%w: %d (len %d)", ErrRange, i, l.Len())
	}
	word0, addr, tid := l.slotWords(base)
	return decodeWords(word0, addr, tid), nil
}

// slotWords loads the slot at word index base marker first. Commit stores
// the counter and address words plainly and publishes them with the
// marker, so they are read only behind a real thread ID: an in-flight
// (zero) or released (TombstoneTID) slot reads as zero words instead of
// racing its writer.
func (l *Log) slotWords(base int) (word0, addr, tid uint64) {
	tid = atomic.LoadUint64(&l.words[base+2])
	if tid == 0 || tid == TombstoneTID {
		return 0, 0, tid
	}
	return l.words[base], l.words[base+1], tid
}

// decodeWords decodes one slot's raw words.
func decodeWords(word0, addr, tid uint64) Entry {
	e := Entry{Kind: KindCall, Counter: word0 & counterMask, Addr: addr, ThreadID: tid}
	if word0&kindBit != 0 {
		e.Kind = KindReturn
	}
	return e
}

// Entries decodes all committed entries in reader order, dismissing
// released (tombstoned) slots. Slots still in flight decode as zero-thread
// entries, exactly as they are persisted.
func (l *Log) Entries() []Entry {
	n := l.Len()
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		e, err := l.Entry(i)
		if err != nil {
			break
		}
		if e.ThreadID == TombstoneTID {
			continue
		}
		out = append(out, e)
	}
	return out
}

// Reset clears every segment tail, seal and drop counter plus the shared
// counter, keeping configuration (capacity, shards, pid, flags) intact. It
// leaves the slots' words as they are, so it must not overlap readers or
// writers: a reader still reading, or one that reads while writers refill
// the recycled slots, would take a stale marker for a commit and read the
// counter and address words a writer is storing plainly. Batched writers
// must Flush (releasing their blocks) before a Reset, or their stale blocks
// would commit into the recycled region.
func (l *Log) Reset() {
	for s := 0; s < l.shards; s++ {
		h := l.segHeaderIdx(s)
		atomic.StoreUint64(&l.words[h+segWordTail], 0)
		atomic.StoreUint64(&l.words[h+segWordDropped], 0)
		atomic.StoreUint64(&l.words[h+segWordSealed], 0)
	}
	atomic.StoreUint64(&l.words[wordTail], 0)
	atomic.StoreUint64(&l.words[wordCounter], 0)
	atomic.StoreUint64(&l.words[wordDropped], 0)
}

// WriteTo persists the header and all reserved entries in the version-3
// binary format: the 32-word main header (capacity and tail both set to the
// total persisted length), then each segment compacted — an 8-word segment
// header whose tail and capacity equal the segment's persisted entry count,
// followed by exactly those entries.
//
// The encoding streams through a double-buffered SwapWriter: while the
// encoder fills one buffer, a background flusher drains the previously
// filled one into w, so persistence of a large log overlaps encoding with
// I/O instead of alternating between them. It implements io.WriterTo.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	sw := NewSwapWriter(w, bulkBufSize)
	err := l.encodeTo(sw)
	if cerr := sw.Close(); err == nil {
		err = cerr
	}
	return sw.Written(), err
}

// encodeTo streams the v3 encoding into w in 4 KiB chunks. The per-segment
// reserved lengths are snapshotted once up front so the header totals and
// the segment bodies agree even if writers are still appending. Each slot
// is read through slotWords, so a slot still in flight (a straggler of a
// sealed segment, or a live writer overtaken by the sweep) persists as
// three zero words and a released one as zero words under TombstoneTID.
func (l *Log) encodeTo(w io.Writer) error {
	segLens := make([]int, l.shards)
	total := 0
	for s := 0; s < l.shards; s++ {
		segLens[s] = l.segLen(s)
		total += segLens[s]
	}
	header := [HeaderWords]uint64{
		wordMagic:        Magic,
		wordVersion:      l.Version(),
		wordPID:          l.PID(),
		wordCapacity:     uint64(total), // persisted capacity == reserved length
		wordTail:         uint64(total),
		wordShards:       uint64(l.shards),
		wordProfilerAddr: l.ProfilerAddr(),
		wordFlags:        l.Flags(),
		// The sampling period is measurement state — analyzers scale folded
		// weights by it — so it persists; the mask/generation/batch words are
		// runtime coordination and persist as zero like the handshake words.
		wordSamplePeriod: l.SamplePeriod(),
		wordCounter:      l.LoadCounter(),
	}

	var (
		buf [4096]byte
		off int
	)
	flush := func() error {
		if off == 0 {
			return nil
		}
		_, err := w.Write(buf[:off])
		off = 0
		return err
	}
	put := func(v uint64) error {
		if off == len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint64(buf[off:], v)
		off += 8
		return nil
	}

	for _, word := range header {
		if err := put(word); err != nil {
			return err
		}
	}
	for s := 0; s < l.shards; s++ {
		n := segLens[s]
		// Segment header: tail == capacity == persisted length; the drop
		// counter persists as zero like the main header's (runtime
		// coordination state, not measurement).
		seg := [SegHeaderWords]uint64{
			segWordTail:     uint64(n),
			segWordCapacity: uint64(n),
		}
		for _, word := range seg {
			if err := put(word); err != nil {
				return err
			}
		}
		const slotBytes = EntryWords * 8
		for base := l.segEntryIdx(s, 0); n > 0; n-- {
			if off+slotBytes > len(buf) {
				if err := flush(); err != nil {
					return err
				}
			}
			word0, addr, tid := l.slotWords(base)
			binary.LittleEndian.PutUint64(buf[off:], word0)
			binary.LittleEndian.PutUint64(buf[off+8:], addr)
			binary.LittleEndian.PutUint64(buf[off+16:], tid)
			off += slotBytes
			base += EntryWords
		}
	}
	return flush()
}

var _ io.WriterTo = (*Log)(nil)

// rawSlot is one persisted slot's raw words, collected while decoding.
type rawSlot struct {
	w0, w1, w2 uint64
}

// buildDecoded assembles a decoded single-segment log from raw slot words.
// The result is normalized to the current in-memory layout (one segment
// whose tail and capacity equal the slot count) with recording disabled.
//
// merge says the slots are a sharded stream's segments concatenated in walk
// order: they are then written in global counter order, ties keeping
// (segment, slot) order. Each thread's entries live in one segment with
// nondecreasing counters in slot order, so the merged stream preserves
// per-thread order — analyzer output over it is byte-identical to a
// single-segment recording. Slots that never committed (zero or tombstone
// markers) ride along and are dismissed by readers
// exactly as in a single-segment log. A single segment is already in slot
// order and is written as it is.
func buildDecoded(slots []rawSlot, merge bool, pid, profilerAddr, flags, counter, samplePeriod uint64) *Log {
	n := len(slots)
	l := &Log{
		words:  make([]uint64, HeaderWords+SegHeaderWords+n*EntryWords),
		sync:   SyncAtomic,
		shards: 1,
		segCap: n,
	}
	l.words[wordMagic] = Magic
	l.words[wordVersion] = Version
	l.words[wordPID] = pid
	l.words[wordProfilerAddr] = profilerAddr
	l.words[wordShards] = 1
	l.words[wordFlags] = flags &^ FlagActive // read-only
	l.words[wordCapacity] = uint64(n)
	l.words[wordCounter] = counter
	l.words[wordSamplePeriod] = samplePeriod
	h := HeaderWords
	l.words[h+segWordTail] = uint64(n)
	l.words[h+segWordCapacity] = uint64(n)
	if merge {
		base := h + SegHeaderWords
		runmerge.Each([][]rawSlot{slots}, slotCounter, func(s *rawSlot) {
			l.words[base] = s.w0
			l.words[base+1] = s.w1
			l.words[base+2] = s.w2
			base += EntryWords
		})
		return l
	}
	for i, s := range slots {
		base := h + SegHeaderWords + i*EntryWords
		l.words[base] = s.w0
		l.words[base+1] = s.w1
		l.words[base+2] = s.w2
	}
	return l
}

func slotCounter(s *rawSlot) uint64 { return s.w0 & counterMask }

// maxEntries bounds the entry counts decoders trust from a header before
// the body bytes back them up.
const maxEntries = 1 << 32

// Read decodes a persisted log. The returned log is inactive (read-only
// use), always uses the in-memory single-segment layout — a sharded stream
// is merged at read time by the global counter value — and still supports
// Entry/Entries/Len and header accessors.
func Read(r io.Reader) (*Log, error) {
	head := make([]byte, HeaderSize)
	if _, err := io.ReadFull(r, head); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, ErrEmptyLog
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncatedHeader
		}
		return nil, fmt.Errorf("shmlog: read header: %w", err)
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(head[i*8:]) }
	if word(wordMagic) != Magic {
		return nil, ErrBadMagic
	}
	if v := word(wordVersion); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return readSharded(r, word)
}

// readSharded decodes a v3 body: per-segment headers and compacted entry
// regions, merged into one stream by the global counter value.
func readSharded(r io.Reader, word func(int) uint64) (*Log, error) {
	shards := word(wordShards)
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("%w: %d", ErrBadShards, shards)
	}
	if word(wordCapacity) > maxEntries {
		return nil, fmt.Errorf("shmlog: unreasonable capacity %d", word(wordCapacity))
	}
	var slots []rawSlot
	segHead := make([]byte, SegHeaderSize)
	total := uint64(0)
	for s := 0; s < int(shards); s++ {
		if _, err := io.ReadFull(r, segHead); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, ErrTruncated
			}
			return nil, fmt.Errorf("shmlog: read segment header: %w", err)
		}
		segTail := binary.LittleEndian.Uint64(segHead[segWordTail*8:])
		segCap := binary.LittleEndian.Uint64(segHead[segWordCapacity*8:])
		if segCap > maxEntries || total+segCap > maxEntries {
			return nil, fmt.Errorf("shmlog: unreasonable segment capacity %d", segCap)
		}
		total += segCap
		if segTail > segCap {
			// A raw (uncompacted) region whose writers raced past the end;
			// the reservation clamp normally parks the tail, but trust the
			// physical bound regardless.
			segTail = segCap
		}
		// The persisted segment body holds segCap slots (compacted streams
		// have segCap == segTail); only the reserved prefix carries data.
		if err := readSlots(r, &slots, int(segCap)); err != nil {
			return nil, err
		}
		// Drop never-reserved slots above the tail from the decoded view.
		keep := len(slots) - (int(segCap) - int(segTail))
		slots = slots[:keep]
	}
	return buildDecoded(slots, shards > 1,
		word(wordPID), word(wordProfilerAddr), word(wordFlags), word(wordCounter),
		word(wordSamplePeriod)), nil
}

// readSlots reads n entry slots from r and appends them to *slots. It reads incrementally so a forged
// header claiming billions of entries fails at the first missing byte
// instead of pre-allocating the claimed size.
func readSlots(r io.Reader, slots *[]rawSlot, n int) error {
	// Whole entries per chunk: 64 KiB is not a multiple of the 24-byte
	// entry size, so round down.
	chunk := make([]byte, (bulkBufSize/EntrySize)*EntrySize)
	remaining := int64(n) * EntrySize
	for remaining > 0 {
		want := int64(len(chunk))
		if remaining < want {
			want = remaining
		}
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return ErrTruncated
			}
			return fmt.Errorf("shmlog: read entries: %w", err)
		}
		for off := int64(0); off < want; off += EntrySize {
			*slots = append(*slots, rawSlot{
				w0: binary.LittleEndian.Uint64(chunk[off:]),
				w1: binary.LittleEndian.Uint64(chunk[off+8:]),
				w2: binary.LittleEndian.Uint64(chunk[off+16:]),
			})
		}
		remaining -= want
	}
	return nil
}

// Cursor is an incremental reader over a live log: each Next call returns
// the entries committed since the previous call, letting a monitor tail the
// log concurrently with running probes without reparsing from the start.
//
// A slot below a segment's tail may be reserved but still in flight: the
// writer sits between the fetch-and-add and the entry stores, or — under
// batched reservation — holds the slot in its current block and will fill
// it with one of its next events. The cursor uses the thread-ID word,
// stored last by Commit, as the commit marker. Instead of stopping at the
// first zero thread-ID word it records such slots as holes, keeps scanning,
// and re-examines the holes on every subsequent Next: a hole that commits
// is emitted exactly once, a hole that is released (TombstoneTID) is
// dropped.
//
// The cursor tracks each segment independently and emits segment-major
// within one Next call. Entries of one segment are emitted in slot order,
// and a writer thread — pinned to one segment by the shard hash — always
// commits its slots in increasing slot order, so emitted entries are
// per-thread ordered — the only order the analyzer relies on. The subtle
// case is a hole left behind across calls: a single scan could read slot i
// as in-flight, then read a later slot j of the same thread as committed
// (the writer committed both in between), emit j now and backfill i on a
// later call — out of per-thread order. Next therefore rescans each
// segment's remaining holes until a pass resolves no new commit: any hole
// ordered before an entry observed committed this call was itself committed
// first (increasing-slot commit order), so the rescan is guaranteed to
// observe it and splice it in. When Next returns, no tracked hole was
// committed before any entry it emitted.
//
// Consequently the cursor requires non-zero thread IDs: an entry committed
// with ThreadID 0 is indistinguishable from an in-flight slot and is
// tracked as a hole forever (never emitted). The probe runtime always
// assigns thread IDs starting at 1.
//
// A cursor is not safe for concurrent use by multiple goroutines, and
// Log.Reset must not be called while a cursor is live.
type Cursor struct {
	log  *Log
	segs []segCursor
	// scratch holds the local slot indexes observed committed during one
	// segment's scan, reused across segments and calls to avoid per-call
	// allocation.
	scratch []int
}

// segCursor is the cursor's per-segment frontier state.
type segCursor struct {
	pos   int
	holes []int
}

// Cursor returns a new incremental reader positioned at the start of the
// log.
func (l *Log) Cursor() *Cursor {
	return &Cursor{log: l, segs: make([]segCursor, l.shards)}
}

// Log returns the log this cursor reads.
func (c *Cursor) Log() *Log { return c.log }

// Pos returns the summed per-segment frontier: the total number of slots
// the cursor has examined. Entries returned so far equal Pos minus Pending
// (holes below the frontiers still awaiting their commit or release).
func (c *Cursor) Pos() int {
	n := 0
	for s := range c.segs {
		n += c.segs[s].pos
	}
	return n
}

// Pending returns how many reserved-but-unresolved holes the cursor is
// tracking below its frontiers, summed over segments.
func (c *Cursor) Pending() int {
	n := 0
	for s := range c.segs {
		n += len(c.segs[s].holes)
	}
	return n
}

// Next appends every newly committed entry to dst — segment-major, in slot
// order within each segment — and returns the extended slice. It returns
// dst unchanged when nothing new has committed.
func (c *Cursor) Next(dst []Entry) []Entry {
	for s := range c.segs {
		dst = c.nextSeg(s, dst)
	}
	return dst
}

// nextSeg advances one segment's frontier, resolving holes to a fixpoint
// (see the Cursor doc comment), and appends that segment's newly committed
// entries to dst in slot order.
func (c *Cursor) nextSeg(s int, dst []Entry) []Entry {
	sc := &c.segs[s]
	n := c.log.segLen(s)
	if len(sc.holes) == 0 && sc.pos >= n {
		return dst
	}

	// Candidate slots for this call, in increasing slot order: previously
	// tracked holes (all below the frontier) followed by the new frontier
	// region.
	pending := sc.holes
	for i := sc.pos; i < n; i++ {
		pending = append(pending, i)
	}
	sc.pos = n

	// Resolve to a fixpoint. A single pass is racy: it can read slot i as
	// in-flight, then read a later slot j of the same thread as committed
	// (the writer committed i then j in between) — emitting j while i is
	// left to backfill on a later call would break per-thread order. A
	// writer commits its slots in increasing slot order, so every hole
	// ordered before a commit observed by pass k is itself committed
	// before pass k+1 starts; rescanning the remaining holes until a pass
	// observes no new commit therefore guarantees that no hole surviving
	// this call was committed before any entry emitted by it. In practice
	// the loop is two passes — the second resolves nothing — and only the
	// first walks the frontier.
	committed := c.scratch[:0]
	for {
		resolved := false
		kept := pending[:0]
		for _, i := range pending {
			switch tid := atomic.LoadUint64(&c.log.words[c.log.segEntryIdx(s, i)+2]); tid {
			case 0:
				kept = append(kept, i) // still in flight
			case TombstoneTID:
				// released: never coming
			default:
				committed = append(committed, i)
				resolved = true
			}
		}
		pending = kept
		if !resolved || len(pending) == 0 {
			break
		}
	}
	sc.holes = pending

	// Later passes append holes that sit between earlier passes' slots;
	// restore slot order (== per-thread commit order) before emitting.
	if !sort.IntsAreSorted(committed) {
		sort.Ints(committed)
	}
	for _, i := range committed {
		dst = append(dst, decodeWords(c.log.slotWords(c.log.segEntryIdx(s, i))))
	}
	c.scratch = committed[:0]
	return dst
}
