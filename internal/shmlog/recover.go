package shmlog

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"teeperf/internal/runmerge"
)

// Corruption classifies one kind of damage ReadLenient detected and
// recovered from. A report carries every class observed, in detection
// order.
type Corruption string

// Corruption classes.
const (
	// CorruptEmptyInput: the input held no bytes at all.
	CorruptEmptyInput Corruption = "empty-input"
	// CorruptBadMagic: no magic word found; nothing was salvageable.
	CorruptBadMagic Corruption = "bad-magic"
	// CorruptTruncatedHeader: the header (or a segment header) ended early;
	// missing words were taken as zero.
	CorruptTruncatedHeader Corruption = "truncated-header"
	// CorruptBadVersion: the version word was not Version; the body was
	// still salvaged as the sharded layout.
	CorruptBadVersion Corruption = "bad-version"
	// CorruptBadShards: a sharded header carried an implausible shard
	// count; it was clamped.
	CorruptBadShards Corruption = "bad-shard-count"
	// CorruptTornEntry: the entry region ended mid-entry; the partial
	// trailing record was dropped.
	CorruptTornEntry Corruption = "torn-entry"
	// CorruptTailRange: the header tail disagreed with the entries
	// actually present (out of range or past EOF); it was clamped to the
	// last fully committed entry.
	CorruptTailRange Corruption = "tail-out-of-range"
	// CorruptGarbageMarker: an entry's commit-marker word held an
	// implausible thread ID (bit-flip damage); the entry was dropped.
	CorruptGarbageMarker Corruption = "garbage-commit-marker"
	// CorruptUnknownFlags: the header flags word carried undefined bits;
	// they were masked off.
	CorruptUnknownFlags Corruption = "unknown-flag-bits"
)

// maxPlausibleTID bounds commit-marker thread IDs ReadLenient accepts.
// The probe runtime assigns IDs sequentially from 1, so any value above
// this bound (other than TombstoneTID) can only be corruption.
const maxPlausibleTID = uint64(1) << 32

// RecoveryReport describes what ReadLenient salvaged from a damaged log
// stream and what it had to drop, instead of an error: the recovery
// analogue of the paper's analyzer dismissing possibly-wrong records.
type RecoveryReport struct {
	// BytesRead is the total input length.
	BytesRead int64
	// BytesSalvaged counts the header and entry bytes that contributed to
	// the recovered log.
	BytesSalvaged int64
	// EntriesPresent is the number of complete entry records found in the
	// input, committed or not.
	EntriesPresent int
	// EntriesSalvaged is the number of committed entries recovered.
	EntriesSalvaged int
	// EntriesDropped is EntriesPresent minus EntriesSalvaged, split into
	// the Dropped* counters below.
	EntriesDropped int
	// DroppedInFlight counts slots whose commit marker was still zero
	// (a writer died between reserve and commit).
	DroppedInFlight int
	// DroppedTombstone counts released slots (normal batched-writer
	// residue, not corruption).
	DroppedTombstone int
	// DroppedGarbage counts entries with implausible commit markers
	// (bit-flip damage).
	DroppedGarbage int
	// TailClamped reports that a header tail was out of range and was
	// clamped to the entries actually present.
	TailClamped bool
	// Corruption lists every damage class observed, in detection order.
	Corruption []Corruption
}

// note records a corruption class once.
func (r *RecoveryReport) note(c Corruption) {
	for _, have := range r.Corruption {
		if have == c {
			return
		}
	}
	r.Corruption = append(r.Corruption, c)
}

// Clean reports whether the stream decoded without any damage: a clean
// ReadLenient is equivalent to Read.
func (r *RecoveryReport) Clean() bool {
	return len(r.Corruption) == 0 && r.EntriesDropped == 0
}

// String renders the report as a short human-readable summary (the
// `teeperf recover` output).
func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "salvaged %d/%d entries (%d/%d bytes)",
		r.EntriesSalvaged, r.EntriesPresent, r.BytesSalvaged, r.BytesRead)
	if r.EntriesDropped > 0 {
		fmt.Fprintf(&b, "; dropped %d (%d in-flight, %d released, %d garbage)",
			r.EntriesDropped, r.DroppedInFlight, r.DroppedTombstone, r.DroppedGarbage)
	}
	if r.TailClamped {
		b.WriteString("; tail clamped")
	}
	if len(r.Corruption) > 0 {
		names := make([]string, len(r.Corruption))
		for i, c := range r.Corruption {
			names[i] = string(c)
		}
		fmt.Fprintf(&b, "; corruption: %s", strings.Join(names, ", "))
	} else {
		b.WriteString("; clean")
	}
	return b.String()
}

// knownFlags is every flag bit a valid header may carry; lenient decoding
// masks everything else off (bit-flip damage in the flags word).
// FlagRecorderReady appears in raw mmap files salvaged after a crash.
const knownFlags = FlagActive | FlagMultithread | EventCall | EventReturn | FlagRecorderReady | FlagSampled

// lenientSalvage accumulates admitted entries and damage notes while a
// lenient decode walks one or more entry regions.
type lenientSalvage struct {
	rep     *RecoveryReport
	entries []Entry
	// merge is set when entries concatenate more than one segment and must
	// be merged by counter, exactly as the strict Read's segment merge.
	merge bool
	// segHeaderBytes counts the segment-header bytes actually read by the
	// sharded walk, so BytesSalvaged accounts for them.
	segHeaderBytes int64
}

// admitRegion scans one segment's entry region and admits committed
// entries, classifying everything else. tail is the region's claimed
// reserved length, capacity its claimed slot count; body holds the
// region's raw bytes (possibly truncated). Regions persisted at full
// capacity (raw mmap files) carry all-zero slots above the tail —
// never-reserved padding rather than died-in-flight writers — which the
// trim below removes.
func (ls *lenientSalvage) admitRegion(body []byte, tail, capacity uint64) {
	rep := ls.rep
	if len(body)%EntrySize != 0 {
		rep.note(CorruptTornEntry)
	}
	slotZero := func(i int) bool {
		for _, b := range body[i*EntrySize : (i+1)*EntrySize] {
			if b != 0 {
				return false
			}
		}
		return true
	}
	present := len(body) / EntrySize
	// Trim trailing all-zero slots down to the tail before judging the
	// tail against what is present — they are padding, not died-in-flight
	// writers. The trim stops at the first non-zero slot, so a tail word
	// bit-flipped downward still leaves the real entries above it in the
	// scan.
	for present > 0 && uint64(present) > tail && slotZero(present-1) {
		present--
	}
	rep.EntriesPresent += present

	// The region's tail and capacity may both be damaged or stale; the
	// authoritative bound is the entries physically present. A tail that
	// disagrees is clamped, never trusted past EOF.
	switch {
	case tail > capacity && capacity == uint64(present):
		// A raw region whose writers raced past the end: reservation
		// normally parks the tail at the capacity, but a crash can
		// persist the transient overshoot. A tail above the capacity of
		// a physically full region is benign overflow, not damage. Clamp
		// silently, exactly as the strict Read does.
		tail = capacity
	case tail > uint64(present) || tail > capacity || int(tail) != present:
		rep.note(CorruptTailRange)
		rep.TailClamped = true
	}

	for i := 0; i < present; i++ {
		word0 := binary.LittleEndian.Uint64(body[i*EntrySize:])
		addr := binary.LittleEndian.Uint64(body[i*EntrySize+8:])
		tid := binary.LittleEndian.Uint64(body[i*EntrySize+16:])
		switch {
		case tid == 0:
			rep.DroppedInFlight++
			continue
		case tid == TombstoneTID:
			rep.DroppedTombstone++
			continue
		case tid > maxPlausibleTID:
			rep.note(CorruptGarbageMarker)
			rep.DroppedGarbage++
			continue
		}
		e := Entry{Kind: KindCall, Counter: word0 & counterMask, Addr: addr, ThreadID: tid}
		if word0&kindBit != 0 {
			e.Kind = KindReturn
		}
		ls.entries = append(ls.entries, e)
	}
}

// ReadLenient decodes a persisted log salvaging whatever it can: a
// truncated header is zero-filled, a tail pointing past EOF (or past the
// capacity) is clamped to the last fully committed entry, a torn trailing
// entry is dropped, and entries whose commit-marker word is zero
// (in-flight), TombstoneTID (released) or implausible (bit-flipped) are
// skipped. The body is walked segment by segment with the same per-region
// salvage rules, then merged by the global counter value exactly as the
// strict Read merges them. Damage is returned as a
// structured RecoveryReport rather than an error; the only errors are real
// I/O failures from r.
//
// The recovered log is compacted — it contains exactly the salvaged
// committed entries, in log order, with a fresh consistent header — so
// Read, the analyzer and every downstream consumer accept it unmodified.
// When the input is undamaged the result is entry-for-entry identical to
// Read's and the report is Clean.
//
// The magic word is the one thing ReadLenient cannot do without: with
// fewer than 8 input bytes, or a damaged magic word, nothing distinguishes
// a torn log from arbitrary bytes, and the salvaged log is empty (class
// bad-magic).
func ReadLenient(r io.Reader) (*Log, *RecoveryReport, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("shmlog: read: %w", err)
	}
	rep := &RecoveryReport{BytesRead: int64(len(data))}

	word := func(i int) uint64 {
		if (i+1)*8 > len(data) {
			return 0
		}
		return binary.LittleEndian.Uint64(data[i*8:])
	}

	switch {
	case len(data) == 0:
		rep.note(CorruptEmptyInput)
		return emptyRecovered(rep, 0, 0)
	case word(wordMagic) != Magic:
		rep.note(CorruptBadMagic)
		if len(data) < HeaderSize {
			rep.note(CorruptTruncatedHeader)
		}
		return emptyRecovered(rep, 0, 0)
	}
	headerLen := HeaderSize
	if len(data) < HeaderSize {
		rep.note(CorruptTruncatedHeader)
		headerLen = len(data)
	}
	pid := word(wordPID)
	profilerAddr := word(wordProfilerAddr)
	flags := word(wordFlags)
	if flags&^knownFlags != 0 {
		rep.note(CorruptUnknownFlags)
		flags &= knownFlags
	}
	if len(data) >= (wordVersion+1)*8 && word(wordVersion) != Version {
		rep.note(CorruptBadVersion)
	}

	ls := &lenientSalvage{rep: rep}
	salvageSharded(ls, data[headerLen:], word(wordCapacity), word(wordShards))

	entries := ls.entries
	rep.EntriesSalvaged = len(entries)
	rep.EntriesDropped = rep.DroppedInFlight + rep.DroppedTombstone + rep.DroppedGarbage
	rep.BytesSalvaged = int64(headerLen) + ls.segHeaderBytes + int64(len(entries))*EntrySize

	if len(entries) == 0 {
		return emptyRecovered(rep, pid, profilerAddr)
	}

	out, err := New(len(entries),
		WithPID(pid),
		WithProfilerAddr(profilerAddr),
		WithFlags(flags&^FlagActive), // recovered logs are read-only
		WithSamplePeriod(word(wordSamplePeriod)),
	)
	if err != nil {
		return nil, nil, err
	}
	commit := func(e *Entry) {
		if slot, n := out.Reserve(1); n != 0 {
			out.Commit(slot, *e)
		}
	}
	if ls.merge {
		runmerge.Each([][]Entry{entries}, entryCounter, commit)
	} else {
		for i := range entries {
			commit(&entries[i])
		}
	}
	out.AddCounter(word(wordCounter))
	return out, rep, nil
}

// salvageSharded salvages a log body: a self-synchronizing segment walk
// (the shards word may itself be damaged, so the walk trusts the segment
// headers tiling the body instead) followed by the counter merge. The
// shards word is only cross-checked against the walked count.
func salvageSharded(ls *lenientSalvage, body []byte, capacity, shardsWord uint64) {
	if len(body) < SegHeaderSize && capacity > 0 {
		// The main header promises entries but not even one segment header
		// is present.
		ls.rep.note(CorruptTruncatedHeader)
	}
	segs := walkSegments(ls, body)
	if uint64(segs) != shardsWord {
		ls.rep.note(CorruptBadShards)
	}
	// A single segment is already in slot order; only a multi-segment
	// stream needs the counter merge.
	ls.merge = segs > 1
}

// walkSegments walks a log body — per-segment headers followed by that
// segment's entry slots — salvaging each segment with the shared
// per-region rules, until the body is exhausted. A truncated stream simply
// runs out of segments; a segment header cut short is zero-filled like the
// main header. Returns the number of segments walked.
func walkSegments(ls *lenientSalvage, body []byte) int {
	off := 0
	segs := 0
	for off < len(body) && segs < MaxShards {
		segWord := func(i int) uint64 {
			at := off + i*8
			if at+8 > len(body) {
				return 0
			}
			return binary.LittleEndian.Uint64(body[at:])
		}
		if off+SegHeaderSize > len(body) {
			ls.rep.note(CorruptTruncatedHeader)
		}
		segTail := segWord(segWordTail)
		segCap := segWord(segWordCapacity)
		headAvail := len(body) - off
		if headAvail > SegHeaderSize {
			headAvail = SegHeaderSize
		}
		ls.segHeaderBytes += int64(headAvail)
		off += SegHeaderSize
		if off > len(body) {
			off = len(body)
		}
		if segCap > maxEntries {
			ls.rep.note(CorruptTailRange)
			segCap = maxEntries
		}
		regionLen := int64(segCap) * EntrySize
		avail := int64(len(body) - off)
		if regionLen > avail {
			regionLen = avail
		}
		ls.admitRegion(body[off:off+int(regionLen)], segTail, segCap)
		off += int(regionLen)
		segs++
	}
	return segs
}

func entryCounter(e *Entry) uint64 { return e.Counter }

// emptyRecovered builds the zero-entry recovered log ReadLenient returns
// when nothing was salvageable: still a valid, loadable log so downstream
// consumers need no special case.
func emptyRecovered(rep *RecoveryReport, pid, profilerAddr uint64) (*Log, *RecoveryReport, error) {
	out, err := New(1,
		WithPID(pid),
		WithProfilerAddr(profilerAddr),
		WithFlags(EventCall|EventReturn),
	)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}
