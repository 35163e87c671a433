package profilestore

import (
	"errors"
	"fmt"

	"teeperf/internal/analyzer"
	"teeperf/internal/runmerge"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// ErrMixedSessions is returned when a query window spans tables of
// different session shapes (PID, profiler address or sampling period):
// their addresses and weights are not comparable, so the store refuses to
// fold them together rather than produce a silently wrong profile.
var ErrMixedSessions = errors.New("profilestore: window spans mixed session shapes")

// FullWindow selects the store's whole history in Profile/Diff calls.
const FullWindow = ^uint64(0)

// AllThreads selects every thread in Profile/Diff calls.
const AllThreads = uint64(0)

// Profile answers a time-travel query: the analyzer profile of thread tid
// (AllThreads for every thread) restricted to the counter window
// [from, to]. Only blocks whose counter bounds overlap the window are read
// (through the LRU cache); the selected entries are merged across tables
// in (window, ingestion) order and handed to the analyzer through an
// in-memory log, so the result is exactly what an offline Analyze of the
// matching slice of the original recording would produce.
func (s *Store) Profile(tid, from, to uint64) (*analyzer.Profile, error) {
	if from > to {
		return nil, fmt.Errorf("profilestore: window [%d, %d] is inverted", from, to)
	}
	s.mu.RLock()
	tms := make([]TableMeta, len(s.man.Tables))
	copy(tms, s.man.Tables)
	readers := make(map[uint64]*Table, len(s.tables))
	for seq, t := range s.tables {
		readers[seq] = t
	}
	tab := s.tab
	s.mu.RUnlock()
	sortTables(tms)

	var (
		selected []TableMeta
		shape    sessionShape
		haveAny  bool
	)
	for _, tm := range tms {
		if tm.Entries == 0 || tm.MinCounter > to || tm.MaxCounter < from {
			continue
		}
		if tid != AllThreads {
			if t := readers[tm.Seq]; t != nil && !t.HasTID(tid) {
				continue
			}
		}
		if !haveAny {
			shape = shapeOf(tm)
			haveAny = true
		} else if shapeOf(tm) != shape {
			return nil, fmt.Errorf("%w: [%d, %d]", ErrMixedSessions, from, to)
		}
		selected = append(selected, tm)
	}

	var entries []shmlog.Entry
	for _, tm := range selected {
		t := readers[tm.Seq]
		if t == nil {
			return nil, fmt.Errorf("profilestore: table %d has no open reader", tm.Seq)
		}
		for b := 0; b < t.Blocks(); b++ {
			min, max := t.blocks[b].minCounter, t.blocks[b].maxCounter
			if min > to || max < from {
				continue
			}
			blk, err := s.readBlock(t, tm.Seq, b)
			if err != nil {
				return nil, err
			}
			for _, e := range blk {
				if e.Counter < from || e.Counter > to {
					continue
				}
				if tid != AllThreads && e.ThreadID != tid {
					continue
				}
				entries = append(entries, e)
			}
		}
	}
	// Each table's filtered entries are one counter-ordered run, visited in
	// (MinCounter, Seq) order; the run merge orders them by counter with
	// that order breaking ties, preserving per-thread sequences (see the
	// compaction commentary). A one-table window passes through.
	entries = runmerge.Sorted(entries, entryCounter)

	log := shmlog.FromEntries(entries, shape.pid, shape.profilerAddr, shape.samplePeriod)
	if tab == nil {
		tab = symtab.New()
	}
	return analyzer.Analyze(log, tab)
}

// Diff answers a differential query: the profile of window A versus window
// B (same thread filter), as per-function share deltas sorted by absolute
// change. The two profiles are also returned for rendering (differential
// flame graphs, tables).
func (s *Store) Diff(tid, fromA, toA, fromB, toB uint64) (*analyzer.Profile, *analyzer.Profile, []analyzer.DiffRow, error) {
	pa, err := s.Profile(tid, fromA, toA)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("window A: %w", err)
	}
	pb, err := s.Profile(tid, fromB, toB)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("window B: %w", err)
	}
	return pa, pb, analyzer.Diff(pa, pb), nil
}
