package profilestore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"teeperf/internal/runmerge"
	"teeperf/internal/shmlog"
)

// Leveled compaction policy: fresh ingests land at level 0. When one
// session shape (same PID, profiler address and sampling period — entries
// of different shapes cannot merge, their addresses and weights mean
// different things) accumulates Fanout tables at a level, the Fanout
// oldest-by-window merge into one table at the next level. Each step
// multiplies table size by Fanout and divides table count likewise, so N
// ingests settle into O(log_Fanout N) tables while every merge stays
// bounded.
//
// The merge itself is the conformance-critical step: inputs are taken in
// (MinCounter, Seq) order and their entries stable-sorted by counter, so
// entries with equal counters keep earlier-table-first order. Each
// thread's entries already appear in counter order within one table, and a
// thread's later-rotation entries never precede its earlier-rotation ones
// (the software counter carries across rotations), so the merged table
// preserves per-thread order — folded analyzer output is byte-identical
// before and after any number of compaction steps.

// sessionShape groups tables that may merge.
type sessionShape struct {
	pid, profilerAddr, samplePeriod uint64
}

func shapeOf(tm TableMeta) sessionShape {
	return sessionShape{tm.PID, tm.ProfilerAddr, tm.SamplePeriod}
}

// pickCompaction selects one eligible merge under the leveled policy: the
// lowest level of any shape holding at least Fanout tables, taking the
// Fanout oldest tables by window order. Returns nil when nothing is
// eligible.
func (s *Store) pickCompaction() []TableMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	groups := make(map[sessionShape]map[int][]TableMeta)
	for _, tm := range s.man.Tables {
		g, ok := groups[shapeOf(tm)]
		if !ok {
			g = make(map[int][]TableMeta)
			groups[shapeOf(tm)] = g
		}
		g[tm.Level] = append(g[tm.Level], tm)
	}
	var best []TableMeta
	bestLevel := -1
	for _, g := range groups {
		for level, tms := range g {
			if len(tms) < s.opt.Fanout {
				continue
			}
			if bestLevel == -1 || level < bestLevel {
				sortTables(tms)
				best = tms[:s.opt.Fanout]
				bestLevel = level
			}
		}
	}
	return best
}

// backlogLocked counts tables currently eligible as compaction inputs
// (levels at or past the fanout trigger). Callers hold mu.
func (s *Store) backlogLocked() int {
	counts := make(map[sessionShape]map[int]int)
	for _, tm := range s.man.Tables {
		g, ok := counts[shapeOf(tm)]
		if !ok {
			g = make(map[int]int)
			counts[shapeOf(tm)] = g
		}
		g[tm.Level]++
	}
	backlog := 0
	for _, g := range counts {
		for _, n := range g {
			if n >= s.opt.Fanout {
				backlog += n
			}
		}
	}
	return backlog
}

// MaybeCompact runs at most one leveled compaction step, reporting whether
// one ran. The background compactor calls this in a loop; tests call it to
// reach mid-compaction states.
func (s *Store) MaybeCompact() (bool, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.isClosed() {
		return false, fmt.Errorf("profilestore: store closed")
	}
	inputs := s.pickCompaction()
	if inputs == nil {
		return false, nil
	}
	maxLevel := 0
	for _, tm := range inputs {
		if tm.Level > maxLevel {
			maxLevel = tm.Level
		}
	}
	if err := s.mergeLocked(inputs, maxLevel+1); err != nil {
		return false, err
	}
	return true, nil
}

// Compact merges every shape's tables down to a single table (full
// compaction), regardless of the fanout trigger.
func (s *Store) Compact() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.isClosed() {
		return fmt.Errorf("profilestore: store closed")
	}
	for {
		byShape := make(map[sessionShape][]TableMeta)
		s.mu.RLock()
		for _, tm := range s.man.Tables {
			byShape[shapeOf(tm)] = append(byShape[shapeOf(tm)], tm)
		}
		s.mu.RUnlock()
		var inputs []TableMeta
		maxLevel := 0
		for _, tms := range byShape {
			if len(tms) < 2 {
				continue
			}
			sortTables(tms)
			inputs = tms
			for _, tm := range tms {
				if tm.Level > maxLevel {
					maxLevel = tm.Level
				}
			}
			break
		}
		if inputs == nil {
			return nil
		}
		if err := s.mergeLocked(inputs, maxLevel+1); err != nil {
			return err
		}
	}
}

// mergeLocked merges the input tables into one output table at outLevel and
// commits the swap. Caller holds wmu. Inputs must be window-sorted and of
// one shape.
func (s *Store) mergeLocked(inputs []TableMeta, outLevel int) error {
	shape := shapeOf(inputs[0])
	var blocks [][]shmlog.Entry
	var segments []string
	total := 0
	s.mu.RLock()
	readers := make([]*Table, len(inputs))
	for i, tm := range inputs {
		if shapeOf(tm) != shape {
			s.mu.RUnlock()
			return fmt.Errorf("profilestore: merging mixed session shapes")
		}
		readers[i] = s.tables[tm.Seq]
	}
	s.mu.RUnlock()
	for i, tm := range inputs {
		t := readers[i]
		if t == nil {
			return fmt.Errorf("profilestore: table %d has no open reader", tm.Seq)
		}
		for b := 0; b < t.Blocks(); b++ {
			blk, err := s.readBlock(t, tm.Seq, b)
			if err != nil {
				return err
			}
			blocks = append(blocks, blk)
			total += len(blk)
		}
		segments = append(segments, tm.Segments...)
	}
	// Each input table is one counter-ordered run, and the inputs come in
	// (MinCounter, Seq) order; the run merge keeps that order among equal
	// counters (the earlier-table tie-break), as a stable sort would.
	entries := make([]shmlog.Entry, 0, total)
	runmerge.Each(blocks, entryCounter, func(e *shmlog.Entry) { entries = append(entries, *e) })
	sort.Strings(segments)

	seq := s.man.NextTable
	meta := TableMeta{
		File:         tableName(seq),
		Seq:          seq,
		Level:        outLevel,
		PID:          shape.pid,
		ProfilerAddr: shape.profilerAddr,
		SamplePeriod: shape.samplePeriod,
		Segments:     segments,
	}
	info, err := writeTable(filepath.Join(s.dir, meta.File), entries,
		meta.PID, meta.ProfilerAddr, meta.SamplePeriod, s.opt.BlockEntries, s.inj)
	if err != nil {
		return fmt.Errorf("profilestore: write merged table: %w", err)
	}
	meta.Entries = info.Entries
	meta.MinCounter = info.MinCounter
	meta.MaxCounter = info.MaxCounter

	drop := make(map[uint64]bool, len(inputs))
	var dropFiles []string
	var retire []uint64
	for _, tm := range inputs {
		drop[tm.Seq] = true
		dropFiles = append(dropFiles, tm.File)
		retire = append(retire, tm.Seq)
	}
	next := s.cloneManifest()
	next.Seq++
	next.NextTable++
	live := next.Tables[:0]
	for _, tm := range next.Tables {
		if !drop[tm.Seq] {
			live = append(live, tm)
		}
	}
	next.Tables = append(live, meta)
	if err := writeManifest(s.dir, next, s.inj); err != nil {
		os.Remove(filepath.Join(s.dir, meta.File))
		return fmt.Errorf("profilestore: commit merged manifest: %w", err)
	}

	reader, err := OpenTable(filepath.Join(s.dir, meta.File))
	if err != nil {
		return fmt.Errorf("profilestore: reopen merged table: %w", err)
	}
	prevSeq := s.swapState(next, map[uint64]*Table{seq: reader}, retire)
	s.mu.Lock()
	s.compactions++
	s.mu.Unlock()
	s.gc(prevSeq, dropFiles)
	return nil
}

// StartCompactor launches a background loop running one compaction step
// per interval while any is eligible. No-op when already running.
func (s *Store) StartCompactor(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crun || s.closed {
		return
	}
	s.crun = true
	s.cstop = make(chan struct{})
	s.cdone = make(chan struct{})
	go s.compactLoop(interval, s.cstop, s.cdone)
}

func (s *Store) compactLoop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			// Drain the backlog: keep stepping until nothing is eligible,
			// so a burst of ingests settles within one tick.
			for {
				ran, err := s.MaybeCompact()
				if err != nil || !ran {
					break
				}
			}
		}
	}
}

// StopCompactor halts the background loop; idempotent.
func (s *Store) StopCompactor() {
	s.mu.Lock()
	if !s.crun {
		s.mu.Unlock()
		return
	}
	s.crun = false
	stop, done := s.cstop, s.cdone
	s.mu.Unlock()
	close(stop)
	<-done
}
