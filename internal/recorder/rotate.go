package recorder

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"teeperf/internal/shmlog"
)

// Rotate swaps a fresh log segment in under the running probes and returns
// the filled (previous) segment for persistence. The counter value carries
// over into the new segment, so tick values stay monotonic across the
// whole run. Rotation lets a measurement outlive the fixed log capacity
// without dropping events; segments are analyzed independently and merged
// (call stacks spanning a rotation boundary appear as truncated/unmatched
// frames at the seam, which the analyzer already tolerates).
//
// Probe threads running with a batched block (probe.WithBatch) have the
// block they hold in the rotated-out segment released eagerly: Rotate calls
// probe.Runtime.FlushLog on the old segment after the swap, so idle
// threads' reserved slots persist as tombstones (dismissed by readers)
// rather than in-flight holes. Rotate then seals the old segment
// (shmlog.Log.Seal): a probe that loaded the old log pointer just before
// the swap and reserves after the seal finds the segment full and counts
// its event as dropped, instead of landing past the length a persister
// already took. A straggler that reserved before the seal may still commit
// after it; such holes are rare, and both the cursor (skip-and-revisit)
// and the analyzer (dismiss) tolerate them — the live monitor's
// retired-cursor grace window covers those stragglers.
func (r *Recorder) Rotate() (*shmlog.Log, error) {
	r.rotateMu.Lock()
	defer r.rotateMu.Unlock()

	old := r.Log()
	if old.Mapped() {
		// A fresh segment would be a process-local heap log: the other
		// process would keep appending to the old mapping and the two
		// would silently diverge. Cross-process runs size the mapping up
		// front instead of rotating.
		return nil, fmt.Errorf("recorder: cannot rotate a shared (mmap) log %q", old.Path())
	}
	anchorRuntime := uint64(int64(r.Table().AnchorAddr()) + r.bias)
	flags := old.Flags() // carry activation state and event mask over
	next, err := shmlog.New(r.cfg.capacity,
		shmlog.WithPID(r.cfg.pid),
		shmlog.WithProfilerAddr(anchorRuntime),
		shmlog.WithShards(r.cfg.logShards()),
		shmlog.WithFlags(flags),
	)
	if err != nil {
		return nil, fmt.Errorf("recorder: rotate: %w", err)
	}
	// Carry the adaptive-probe controls (sampling period, deny masks) into
	// the next segment, so a live throttle survives rotation; the flags
	// copy above already carried FlagSampled.
	next.CopyControls(old)

	// Rebind the software counter to the new segment's header word; the
	// counter pauses, seeds the new word from the old one (tick
	// continuity) and resumes. Probes keep their Source — only its target
	// moves. Non-software sources are log-independent and carry over.
	if r.soft != nil {
		r.soft.Retarget(next)
	} else {
		next.AddCounter(old.LoadCounter())
	}

	prev, err := r.rt.SwapLog(next)
	if err != nil {
		return nil, err
	}
	// Tombstone the blocks batched threads still hold in the rotated-out
	// segment before anyone persists it; threads already writing to the
	// new segment are left alone.
	r.rt.FlushLog(prev)
	prev.Seal()
	r.segments++
	for _, fn := range r.rotateHooks {
		fn(prev)
	}
	return prev, nil
}

// OnRotate registers fn to be called with each rotated-out segment, in
// rotation order, before Rotate returns. The live monitor subscribes so it
// can drain segments that come and go entirely between two polls; fn must
// not call back into Rotate or Segments.
func (r *Recorder) OnRotate(fn func(old *shmlog.Log)) {
	r.rotateMu.Lock()
	defer r.rotateMu.Unlock()
	r.rotateHooks = append(r.rotateHooks, fn)
}

// Segments returns how many rotations have happened.
func (r *Recorder) Segments() int {
	r.rotateMu.Lock()
	defer r.rotateMu.Unlock()
	return r.segments
}

// PersistSegment writes one rotated-out log segment (with the shared
// symbol table) as a bundle file at path, crash-safely like Persist: a
// segment file is either complete or absent, never torn. Unlike Persist it
// does not wait for a running checkpoint pass, so path must be neither the
// checkpoint path nor one a concurrent Persist writes.
func (r *Recorder) PersistSegment(log *shmlog.Log, path string) error {
	_, err := writeBundleFile(r.injector(), path, r.Table(), log)
	return err
}

// StartAutoRotate launches a watcher that rotates the log whenever it
// crosses fillThreshold (0 < t < 1, e.g. 0.9) and persists each filled
// segment into dir as segment-NNNN.teeperf. A segment whose write fails
// stays queued, holding its memory, and is retried in order on each later
// tick and once more when the watcher stops; what still fails then is
// counted in Stats.RotatedLost and returned by StopAutoRotate (and Stop,
// which implies it). The active segment is persisted by the usual Persist
// call.
func (r *Recorder) StartAutoRotate(dir string, fillThreshold float64, checkEvery time.Duration) error {
	if fillThreshold <= 0 || fillThreshold >= 1 {
		return fmt.Errorf("recorder: fill threshold %f out of (0,1)", fillThreshold)
	}
	if checkEvery <= 0 {
		checkEvery = 10 * time.Millisecond
	}
	if r.rotStop != nil {
		return fmt.Errorf("recorder: auto-rotate already running")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("recorder: auto-rotate dir: %w", err)
	}
	r.rotStop = make(chan struct{})
	r.rotDone = make(chan struct{})
	go r.autoRotate(dir, fillThreshold, checkEvery, r.rotStop, r.rotDone)
	return nil
}

// queuedSegment is a rotated-out segment auto-rotation has yet to write.
type queuedSegment struct {
	log  *shmlog.Log
	path string
}

func (r *Recorder) autoRotate(dir string, threshold float64, every time.Duration, stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	seq := 0
	var queue []queuedSegment
	for {
		select {
		case <-stop:
			r.rotErr = r.persistQueued(queue)
			return
		case <-ticker.C:
			log := r.Log()
			if float64(log.Len()) >= threshold*float64(log.Capacity()) {
				// A failed rotation is retried on the next tick; the log
				// keeps absorbing events meanwhile.
				if prev, err := r.Rotate(); err == nil {
					seq++
					path := filepath.Join(dir, fmt.Sprintf("segment-%04d.teeperf", seq))
					queue = append(queue, queuedSegment{prev, path})
				}
			}
			// Write in rotation order; the first failure leaves it and
			// every later segment queued for the next tick.
			for len(queue) > 0 && r.PersistSegment(queue[0].log, queue[0].path) == nil {
				queue[0] = queuedSegment{}
				queue = queue[1:]
			}
		}
	}
}

// persistQueued makes the last attempt at every queued segment. The
// entries of the segments that still fail are added to Stats.RotatedLost,
// and the first failure is returned.
func (r *Recorder) persistQueued(queue []queuedSegment) error {
	var (
		first  error
		failed int
	)
	for _, q := range queue {
		if err := r.PersistSegment(q.log, q.path); err != nil {
			r.rotatedLost.Add(uint64(q.log.Len()))
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if first != nil {
		return fmt.Errorf("recorder: auto-rotate: %d segments not written: %w", failed, first)
	}
	return nil
}

// StopAutoRotate halts the watcher after one last attempt at the segments
// it could not write yet, and returns the error of that attempt
// (idempotent, safe if never started).
func (r *Recorder) StopAutoRotate() error {
	if r.rotStop == nil {
		return nil
	}
	close(r.rotStop)
	<-r.rotDone
	err := r.rotErr
	r.rotStop, r.rotDone, r.rotErr = nil, nil, nil
	return err
}
