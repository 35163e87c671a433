// Package faultinject provides deterministic, seed-driven fault points for
// the record→persist→analyze pipeline. The recorder's bundle-file writer,
// the software counter and the tests wire an Injector into the paths that
// must survive hostile conditions (TEEMon's "the monitor is a production
// service" stance, Stress-SGX's "stress it on purpose" stance): short,
// failed and slow writes, a stalled counter thread, a process kill between
// any two persistence steps, and bit-flips in the header or entry region
// of a persisted log.
//
// The default injector is disabled: every fault point collapses to a
// single atomic-bool load, so production hot paths pay one predicate
// check. Arming is explicit and per-point; all randomness (bit-flip
// positions, jitter) flows from the injector's seed so a failing run can
// be replayed exactly.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Point identifies one registered fault point. Points are stable
// identifiers: tests arm them by name and the kill-at-every-point
// harness iterates over All.
type Point uint8

// Registered fault points.
const (
	// PointNone is the zero Point; it is never hit.
	PointNone Point = iota

	// CheckpointBegin fires at the top of one recorder bundle-file write
	// (a checkpoint pass, Persist or PersistSegment), before the .part
	// file is created.
	CheckpointBegin
	// CheckpointWrite fires once per Write call while the bundle body
	// streams into the .part file (the injectable writer wrapper).
	CheckpointWrite
	// CheckpointBeforeSync fires after the body is written, before fsync.
	CheckpointBeforeSync
	// CheckpointBeforeRename fires after fsync, before the atomic
	// .part→final rename.
	CheckpointBeforeRename
	// CheckpointAfterRename fires after the rename completed.
	CheckpointAfterRename
	// CounterStall fires periodically from the software-counter loop;
	// arming it with Sleep models a stalled/descheduled counter thread.
	CounterStall

	// StoreTableWrite fires once per Write while a history-store table
	// file streams into its .tmp (the injectable writer wrapper).
	StoreTableWrite
	// StoreTableSync fires after a table body is written, before fsync.
	StoreTableSync
	// StoreTableRename fires after the table fsync, before the atomic
	// .tmp→final rename.
	StoreTableRename
	// StoreManifestWrite fires once per Write while a MANIFEST-<seq>
	// file streams into its .tmp.
	StoreManifestWrite
	// StoreManifestSync fires after the manifest body is written, before
	// its fsync (and before the .tmp→MANIFEST-<seq> rename).
	StoreManifestSync
	// StoreCurrentRename fires after the manifest landed, before the
	// CURRENT pointer's atomic rename — the store's commit point.
	StoreCurrentRename
	// StoreGC fires after a commit, before obsolete files (compaction
	// inputs, superseded manifests) are deleted.
	StoreGC

	numPoints
)

// All lists every registered fault point, in pipeline order.
var All = []Point{
	CheckpointBegin,
	CheckpointWrite,
	CheckpointBeforeSync,
	CheckpointBeforeRename,
	CheckpointAfterRename,
	CounterStall,
	StoreTableWrite,
	StoreTableSync,
	StoreTableRename,
	StoreManifestWrite,
	StoreManifestSync,
	StoreCurrentRename,
	StoreGC,
}

// CheckpointPoints lists the recorder-pipeline fault points; the
// recorder's kill-at-every-fault-point test iterates over it, so adding
// a checkpoint point here automatically extends that harness.
var CheckpointPoints = []Point{
	CheckpointBegin,
	CheckpointWrite,
	CheckpointBeforeSync,
	CheckpointBeforeRename,
	CheckpointAfterRename,
	CounterStall,
}

// StorePoints lists the history-store fault points in commit order; the
// store's kill-at-every-fault-point matrix iterates over it.
var StorePoints = []Point{
	StoreTableWrite,
	StoreTableSync,
	StoreTableRename,
	StoreManifestWrite,
	StoreManifestSync,
	StoreCurrentRename,
	StoreGC,
}

// String returns the stable name of the point.
func (p Point) String() string {
	switch p {
	case PointNone:
		return "none"
	case CheckpointBegin:
		return "checkpoint-begin"
	case CheckpointWrite:
		return "checkpoint-write"
	case CheckpointBeforeSync:
		return "checkpoint-before-sync"
	case CheckpointBeforeRename:
		return "checkpoint-before-rename"
	case CheckpointAfterRename:
		return "checkpoint-after-rename"
	case CounterStall:
		return "counter-stall"
	case StoreTableWrite:
		return "store-table-write"
	case StoreTableSync:
		return "store-table-sync"
	case StoreTableRename:
		return "store-table-rename"
	case StoreManifestWrite:
		return "store-manifest-write"
	case StoreManifestSync:
		return "store-manifest-sync"
	case StoreCurrentRename:
		return "store-current-rename"
	case StoreGC:
		return "store-gc"
	default:
		return fmt.Sprintf("point(%d)", uint8(p))
	}
}

// PointByName resolves a stable point name (as printed by String) back to
// its Point. The subprocess kill harness passes points through the
// environment by name.
func PointByName(name string) (Point, bool) {
	for _, p := range All {
		if p.String() == name {
			return p, true
		}
	}
	return PointNone, false
}

// ErrInjected is the error produced by the Fail action (and wrapped by
// injected write failures), so tests can tell an injected fault from a
// real one.
var ErrInjected = errors.New("faultinject: injected fault")

// errShortWrite is the internal sentinel an armed action returns to make
// the writer wrapper truncate the current Write instead of failing it.
var errShortWrite = errors.New("faultinject: short write")

// Action is what happens when an armed fault point is hit. Returning an
// error propagates it to the caller of Hit (injected write/IO failures);
// an action may also never return (process kill).
type Action func(p Point) error

// Fail returns an action that fails the operation with ErrInjected.
func Fail() Action {
	return func(p Point) error {
		return fmt.Errorf("%w at %s", ErrInjected, p)
	}
}

// Short returns an action that truncates the current write: the writer
// wrapper persists roughly half the buffer and reports io.ErrShortWrite.
// At non-writer points it behaves like Fail.
func Short() Action {
	return func(Point) error { return errShortWrite }
}

// Sleep returns an action that stalls the calling goroutine for d — a slow
// write, or a descheduled counter thread at CounterStall.
func Sleep(d time.Duration) Action {
	return func(Point) error {
		time.Sleep(d)
		return nil
	}
}

// Kill returns an action that SIGKILLs the current process: the operating
// system tears the process down mid-operation with no deferred cleanup,
// exactly like the profiled application wedging and taking the recorder
// with it. It never returns.
func Kill() Action {
	return func(Point) error {
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		// SIGKILL is asynchronous in principle; block until it lands so
		// no further persistence step runs.
		select {}
	}
}

// arm is one armed fault point: the action fires on the n-th hit (1-based)
// and, unless persistent, disarms afterwards.
type arm struct {
	after      int64 // remaining hits before firing
	action     Action
	persistent bool
}

// Injector is a set of armed fault points plus the seeded randomness the
// corruption helpers draw from. The zero value is not usable; call New.
// An Injector is safe for concurrent use.
type Injector struct {
	enabled atomic.Bool

	mu   sync.Mutex
	rng  *rand.Rand
	arms map[Point]*arm
	hits [numPoints]atomic.Uint64
}

// New returns a disabled injector whose randomness derives from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:  rand.New(rand.NewSource(seed)),
		arms: make(map[Point]*arm),
	}
}

// Default is the package-level injector production code consults when no
// explicit one is configured. It stays disabled (one atomic load per fault
// point) unless a test arms it.
var Default = New(0)

// Enabled reports whether any fault point is armed.
func (in *Injector) Enabled() bool { return in.enabled.Load() }

// Arm schedules action to fire on the nth subsequent hit of p (n <= 1
// means the next hit), then disarm.
func (in *Injector) Arm(p Point, nth int, action Action) {
	in.arm(p, nth, action, false)
}

// ArmEvery schedules action to fire on every hit of p from the nth on.
func (in *Injector) ArmEvery(p Point, nth int, action Action) {
	in.arm(p, nth, action, true)
}

func (in *Injector) arm(p Point, nth int, action Action, persistent bool) {
	if nth < 1 {
		nth = 1
	}
	in.mu.Lock()
	in.arms[p] = &arm{after: int64(nth), action: action, persistent: persistent}
	in.mu.Unlock()
	in.enabled.Store(true)
}

// Disarm removes any armed action at p.
func (in *Injector) Disarm(p Point) {
	in.mu.Lock()
	delete(in.arms, p)
	empty := len(in.arms) == 0
	in.mu.Unlock()
	if empty {
		in.enabled.Store(false)
	}
}

// Reset disarms every point and zeroes the hit counters.
func (in *Injector) Reset() {
	in.mu.Lock()
	in.arms = make(map[Point]*arm)
	for i := range in.hits {
		in.hits[i].Store(0)
	}
	in.mu.Unlock()
	in.enabled.Store(false)
}

// Hits reports how many times p was reached (whether or not armed) since
// the last Reset. Hits are only counted while the injector is enabled, so
// the disabled fast path stays a single load.
func (in *Injector) Hits(p Point) uint64 { return in.hits[p].Load() }

// Hit is the fault point itself. Disabled injectors return nil after one
// atomic load. An armed point fires its action when its countdown
// expires; the action's error (if any) is returned to the caller.
func (in *Injector) Hit(p Point) error {
	if !in.enabled.Load() {
		return nil
	}
	in.hits[p].Add(1)
	in.mu.Lock()
	a := in.arms[p]
	var action Action
	if a != nil {
		a.after--
		if a.after <= 0 {
			action = a.action
			if a.persistent {
				a.after = 1
			} else {
				delete(in.arms, p)
				if len(in.arms) == 0 {
					in.enabled.Store(false)
				}
			}
		}
	}
	in.mu.Unlock()
	if action == nil {
		return nil
	}
	return action(p)
}

// Writer wraps w so every Write first hits p: armed faults turn into
// short writes (Short), write errors (Fail), delays (Sleep) or a process
// kill (Kill). With the injector disabled the wrapper adds one atomic
// load per Write.
func (in *Injector) Writer(w io.Writer, p Point) io.Writer {
	return &faultWriter{in: in, w: w, p: p}
}

type faultWriter struct {
	in *Injector
	w  io.Writer
	p  Point
}

func (fw *faultWriter) Write(b []byte) (int, error) {
	switch err := fw.in.Hit(fw.p); {
	case err == nil:
	case errors.Is(err, errShortWrite):
		n, werr := fw.w.Write(b[:len(b)/2])
		if werr != nil {
			return n, werr
		}
		return n, io.ErrShortWrite
	default:
		return 0, err
	}
	return fw.w.Write(b)
}

// WriterAt wraps w so every WriteAt first hits p, with the same armed
// fault semantics as Writer.
func (in *Injector) WriterAt(w io.WriterAt, p Point) io.WriterAt {
	return &faultWriterAt{in: in, w: w, p: p}
}

type faultWriterAt struct {
	in *Injector
	w  io.WriterAt
	p  Point
}

func (fw *faultWriterAt) WriteAt(b []byte, off int64) (int, error) {
	switch err := fw.in.Hit(fw.p); {
	case err == nil:
	case errors.Is(err, errShortWrite):
		n, werr := fw.w.WriteAt(b[:len(b)/2], off)
		if werr != nil {
			return n, werr
		}
		return n, io.ErrShortWrite
	default:
		return 0, err
	}
	return fw.w.WriteAt(b, off)
}

// FlipBits returns a copy of data with n random bit flips confined to
// [lo, hi) (clamped to the data's bounds). Flip positions derive from the
// injector's seed, so a corrupted fixture is reproducible. It is how the
// corruption-matrix tests and the fuzz corpus model silent media or
// shared-memory corruption in the header versus entry regions of a
// persisted log.
func (in *Injector) FlipBits(data []byte, lo, hi, n int) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if lo < 0 {
		lo = 0
	}
	if hi > len(out) {
		hi = len(out)
	}
	if lo >= hi || n <= 0 {
		return out
	}
	in.mu.Lock()
	for i := 0; i < n; i++ {
		pos := lo + in.rng.Intn(hi-lo)
		out[pos] ^= 1 << in.rng.Intn(8)
	}
	in.mu.Unlock()
	return out
}

// Truncate returns data cut to n bytes (a torn file). Negative n counts
// from the end.
func Truncate(data []byte, n int) []byte {
	if n < 0 {
		n = len(data) + n
	}
	if n < 0 {
		n = 0
	}
	if n > len(data) {
		n = len(data)
	}
	out := make([]byte, n)
	copy(out, data[:n])
	return out
}
