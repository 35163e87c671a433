//go:build linux || darwin

package shmlog

import (
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// MmapSupported reports whether this platform supports file-backed shared
// logs (CreateFile / OpenFile). When false, callers fall back to the
// in-process heap log.
const MmapSupported = true

// CreateFile creates (truncating) a file-backed log at path with room for
// capacity entries and maps it MAP_SHARED. The header is initialised like
// New's — including the segment headers of a sharded log (WithShards) —
// plus the attach-handshake words: creator PID (this process) and a zero
// attach generation. The recorder process calls this before spawning the
// instrumented application.
//
// SyncMutex is rejected: a Go mutex cannot synchronise writers in two
// different processes.
func CreateFile(path string, capacity int, opts ...Option) (*Log, error) {
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
	if o.sync != SyncAtomic {
		return nil, fmt.Errorf("%w: file-backed logs require SyncAtomic (a mutex cannot cross processes)", ErrMapped)
	}
	if o.shards < 1 || o.shards > MaxShards {
		return nil, fmt.Errorf("%w: %d (want 1..%d)", ErrBadShards, o.shards, MaxShards)
	}

	segCap := segCapFor(capacity, o.shards)
	total := segCap * o.shards
	size := HeaderSize + o.shards*(SegHeaderSize+segCap*EntrySize)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("shmlog: create mapping file: %w", err)
	}
	if err := f.Truncate(int64(size)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("shmlog: size mapping file: %w", err)
	}
	l, err := mapFile(f, path, size, syscall.PROT_READ|syscall.PROT_WRITE)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	l.shards = o.shards
	l.segCap = segCap
	l.words[wordMagic] = Magic
	l.words[wordVersion] = Version
	l.words[wordPID] = o.pid
	l.words[wordCapacity] = uint64(total)
	l.words[wordProfilerAddr] = o.profilerAddr
	l.words[wordCreatorPID] = uint64(os.Getpid())
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

// validateMapped checks a freshly mapped log's header against the file size
// and derives the cached shard layout (l.shards, l.segCap).
func validateMapped(l *Log, path string, size int64) error {
	if got := atomic.LoadUint64(&l.words[wordMagic]); got != Magic {
		return fmt.Errorf("%w: mapping file %q", ErrBadMagic, path)
	}
	if got := atomic.LoadUint64(&l.words[wordVersion]); got != Version {
		return fmt.Errorf("%w: %d in mapping file %q", ErrBadVersion, got, path)
	}
	shards := atomic.LoadUint64(&l.words[wordShards])
	if shards < 1 || shards > MaxShards {
		return fmt.Errorf("%w: %d in mapping file %q", ErrBadShards, shards, path)
	}
	capacity := atomic.LoadUint64(&l.words[wordCapacity])
	if capacity > maxEntries {
		return fmt.Errorf("shmlog: unreasonable capacity %d in mapping file %q", capacity, path)
	}
	if capacity%shards != 0 {
		return fmt.Errorf("%w: capacity %d not divisible by %d shards in mapping file %q",
			ErrTruncated, capacity, shards, path)
	}
	segCap := capacity / shards
	want := int64(HeaderSize) + int64(shards)*(SegHeaderSize+int64(segCap)*EntrySize)
	if want > size {
		return fmt.Errorf("%w: mapping file %q holds %d bytes but header claims capacity %d over %d shards (%d bytes)",
			ErrTruncated, path, size, capacity, shards, want)
	}
	l.shards = int(shards)
	l.segCap = int(segCap)
	// The per-segment capacity words must agree with the main header, or
	// the segment arithmetic (and every writer mapping the file) would
	// disagree about where segments start.
	for s := 0; s < l.shards; s++ {
		if got := atomic.LoadUint64(&l.words[l.segHeaderIdx(s)+segWordCapacity]); got != segCap {
			return fmt.Errorf("%w: segment %d capacity %d disagrees with header segment capacity %d in mapping file %q",
				ErrTruncated, s, got, segCap, path)
		}
	}
	return nil
}

// OpenFile maps an existing file-backed log MAP_SHARED and validates its
// header (magic, version, shard layout, capacity vs file size). It
// atomically bumps the attach generation so the creator can observe the
// attach. The instrumented application calls this with the path handed
// over in TEEPERF_SHM.
func OpenFile(path string) (*Log, error) {
	l, err := openMapped(path, os.O_RDWR, syscall.PROT_READ|syscall.PROT_WRITE)
	if err != nil {
		return nil, err
	}
	atomic.AddUint64(&l.words[wordAttachGen], 1)
	return l, nil
}

// ObserveFile maps an existing file-backed log MAP_SHARED but read-only:
// PROT_READ, no attach-generation bump, no header writes. It is the
// multi-attach path for passive observers (the fleet agent): any number of
// observer mappings can coexist with the hosting recorder and the
// instrumented application without either noticing, because an observer
// never stores to the shared region — header accessors and stats are
// atomic loads, and cursors read slot words behind the commit marker.
// Mutating a log returned by ObserveFile (SetPID,
// Append, ...) faults; ReadOnly reports the restriction.
func ObserveFile(path string) (*Log, error) {
	return openMapped(path, os.O_RDONLY, syscall.PROT_READ)
}

// ControlFile maps an existing file-backed log MAP_SHARED read-write for a
// controller: unlike OpenFile it does NOT bump the attach generation (the
// creator must not mistake a throttling agent for the instrumented
// application attaching), and unlike ObserveFile the mapping is writable so
// the caller can drive the adaptive-probe control words (SetSamplePeriod,
// SetThreadMask, SetAddrMask) live. Controllers must restrict their stores
// to the control words; everything else belongs to the recorder and the
// application.
func ControlFile(path string) (*Log, error) {
	return openMapped(path, os.O_RDWR, syscall.PROT_READ|syscall.PROT_WRITE)
}

// openMapped opens an existing file-backed log with flag, maps the whole
// file MAP_SHARED with protection prot and validates the header. A mapping
// without PROT_WRITE is marked read-only.
func openMapped(path string, flag, prot int) (*Log, error) {
	f, err := os.OpenFile(path, flag, 0)
	if err != nil {
		return nil, fmt.Errorf("shmlog: open mapping file: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shmlog: stat mapping file: %w", err)
	}
	size := st.Size()
	if size < HeaderSize {
		f.Close()
		return nil, fmt.Errorf("%w: mapping file %q is %d bytes, below the %d-byte header", ErrTruncatedHeader, path, size, HeaderSize)
	}
	if size > int64(int(^uint(0)>>1)) { // cannot address as one slice
		f.Close()
		return nil, fmt.Errorf("shmlog: mapping file %q too large (%d bytes)", path, size)
	}
	l, err := mapFile(f, path, int(size), prot)
	if err != nil {
		f.Close()
		return nil, err
	}
	l.readOnly = prot&syscall.PROT_WRITE == 0
	if err := validateMapped(l, path, size); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// mapFile maps size bytes of f MAP_SHARED with protection prot and lays the
// word array over the mapping. size must be a multiple of 8 and at least
// HeaderSize.
func mapFile(f *os.File, path string, size, prot int) (*Log, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, prot, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("shmlog: mmap %q: %w", path, err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&data[0])), size/8)
	return &Log{
		words:  words,
		sync:   SyncAtomic,
		shards: 1,
		mapped: data,
		file:   f,
		path:   path,
	}, nil
}

// msync flushes the mapping to its backing file with MS_SYNC.
func msync(data []byte) error {
	_, _, errno := syscall.Syscall(syscall.SYS_MSYNC,
		uintptr(unsafe.Pointer(&data[0])), uintptr(len(data)), uintptr(syscall.MS_SYNC))
	if errno != 0 {
		return fmt.Errorf("shmlog: msync: %w", errno)
	}
	return nil
}

// munmap releases the mapping.
func munmap(data []byte) error {
	if err := syscall.Munmap(data); err != nil {
		return fmt.Errorf("shmlog: munmap: %w", err)
	}
	return nil
}
