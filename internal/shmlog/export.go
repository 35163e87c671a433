package shmlog

// Segment export: the profile history store persists committed entries out
// of finished logs and later rebuilds read-only logs from stored entries,
// so both directions live here next to the decoder they reuse.

// CommittedEntries decodes only the fully committed entries in reader
// order: slots still in flight (zero thread-ID word) and released slots
// (TombstoneTID) are dismissed, exactly as the analyzer dismisses them.
// This is the canonical extraction for persisting a finished segment —
// what remains is what any analysis of the log would have folded.
func (l *Log) CommittedEntries() []Entry {
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
		if e.ThreadID == 0 || e.ThreadID == TombstoneTID {
			continue
		}
		out = append(out, e)
	}
	return out
}

// FromEntries assembles a read-only single-segment log carrying exactly the
// given committed entries, in the given order. The result supports
// Entry/Entries/Len and the header accessors the analyzer reads (PID,
// ProfilerAddr, SamplePeriod), with recording disabled — the inverse of
// CommittedEntries, used by the history store to hand stored windows back
// to the analyzer. A samplePeriod of 0 normalizes to 1; periods above 1
// set FlagSampled so analyzers scale folded weights.
func FromEntries(entries []Entry, pid, profilerAddr, samplePeriod uint64) *Log {
	if samplePeriod == 0 {
		samplePeriod = 1
	}
	flags := EventCall | EventReturn
	if samplePeriod > 1 {
		flags |= FlagSampled
	}
	slots := make([]rawSlot, len(entries))
	var maxCounter uint64
	for i, e := range entries {
		w0 := e.Counter & counterMask
		if e.Kind == KindReturn {
			w0 |= kindBit
		}
		slots[i] = rawSlot{w0: w0, w1: e.Addr, w2: e.ThreadID}
		if e.Counter > maxCounter {
			maxCounter = e.Counter
		}
	}
	return buildDecoded(slots, false, pid, profilerAddr, flags, maxCounter, samplePeriod)
}
