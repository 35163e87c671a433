package recorder

import (
	"fmt"
	"time"
)

// Checkpointing is the recorder's crash-consistency mechanism: a
// background flusher that periodically snapshots the committed prefix of
// the run — symbol table plus shared-memory log — into a bundle file at
// <path>, written like every bundle file (writeBundleFile: <path>.part,
// fsync, atomic rename). The rename is the commit point, so a SIGKILL at
// any instant leaves either the previous complete checkpoint at <path>
// (loadable with plain Read) or, at worst, a torn <path>.part that
// shmlog.ReadLenient salvages. The recorder exists outside the TEE
// precisely to survive the enclave misbehaving (paper §II, stage 2);
// checkpointing extends that survival to the recorder process itself.
//
// Every step boundary of a bundle-file write is a registered fault point
// (faultinject.Checkpoint*), so the kill-at-every-fault-point test can
// SIGKILL the process between any two persistence steps of a checkpoint
// pass or a Persist and assert the recovery invariant above.
type checkpointer struct {
	stop chan struct{}
	done chan struct{}
}

// StartCheckpoint launches the background flusher: every interval it
// writes the current bundle to path the way Persist does (path+".part",
// fsync, atomic rename), so path always holds a complete bundle once the
// first pass finished. StopCheckpoint halts it after one final pass; Stop
// implies StopCheckpoint. A later Persist to the same path replaces the
// final checkpoint just as crash-safely.
func (r *Recorder) StartCheckpoint(path string, interval time.Duration) error {
	if path == "" {
		return fmt.Errorf("recorder: checkpoint path must not be empty")
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	if r.ckpt != nil {
		return fmt.Errorf("recorder: checkpointing already running")
	}
	r.ckptPath = path
	r.ckptStats.Configured = true
	c := &checkpointer{stop: make(chan struct{}), done: make(chan struct{})}
	r.ckpt = c
	go r.checkpointLoop(c, interval)
	return nil
}

// StopCheckpoint halts the background flusher after one final checkpoint
// pass and returns that pass's error. It is idempotent and safe to call
// when checkpointing never started.
func (r *Recorder) StopCheckpoint() error {
	r.ckptMu.Lock()
	c := r.ckpt
	r.ckpt = nil
	r.ckptMu.Unlock()
	if c == nil {
		return nil
	}
	close(c.stop)
	<-c.done
	return r.CheckpointNow()
}

// CheckpointStats is the checkpointer's self-accounting, sampled by the
// live monitor and exported as Prometheus gauges: how healthy is the
// crash-consistency mechanism right now, and how stale would a recovered
// profile be.
type CheckpointStats struct {
	// Configured reports whether checkpointing was ever started (the other
	// fields are meaningful only when true).
	Configured bool
	// Passes counts completed passes (reached the atomic rename).
	Passes int
	// LastSuccess is the completion time of the most recent clean pass
	// (zero before the first).
	LastSuccess time.Time
	// ConsecutiveFailures counts failed passes since the last clean one;
	// it resets to zero on every success.
	ConsecutiveFailures int
	// BytesWritten is the cumulative bundle bytes written by completed
	// passes (failed passes do not count — their .part is discarded).
	BytesWritten uint64
	// LastErr is the most recent pass error (nil after a clean pass).
	LastErr error
}

// CheckpointStats reports the checkpointer's self-accounting.
func (r *Recorder) CheckpointStats() CheckpointStats {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	return r.ckptStats
}

// CheckpointNow performs one synchronous checkpoint pass against the
// configured path. It is what the background loop runs each tick; tests
// call it directly to hit fault points deterministically.
func (r *Recorder) CheckpointNow() error {
	r.ckptMu.Lock()
	path := r.ckptPath
	r.ckptMu.Unlock()
	if path == "" {
		return fmt.Errorf("recorder: no checkpoint path configured (StartCheckpoint first)")
	}
	written, err := r.writeFile(path)
	r.ckptMu.Lock()
	if err == nil {
		r.ckptStats.Passes++
		r.ckptStats.LastSuccess = time.Now()
		r.ckptStats.ConsecutiveFailures = 0
		r.ckptStats.BytesWritten += written
	} else {
		r.ckptStats.ConsecutiveFailures++
	}
	r.ckptStats.LastErr = err
	r.ckptMu.Unlock()
	return err
}

func (r *Recorder) checkpointLoop(c *checkpointer, interval time.Duration) {
	defer close(c.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			// Pass errors are sticky in CheckpointStats until a clean
			// pass; the loop keeps trying — a transiently full disk must
			// not end crash protection for the rest of the run.
			_ = r.CheckpointNow()
		}
	}
}
