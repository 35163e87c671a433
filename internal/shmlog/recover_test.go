package shmlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"teeperf/internal/faultinject"
)

// encodeCurrent persists a small committed log in the current format and
// returns the raw bytes plus the entries it carries.
func encodeCurrent(t *testing.T, n int) ([]byte, []Entry) {
	t.Helper()
	l, err := New(n, WithPID(42), WithProfilerAddr(0x400000))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		kind := KindCall
		if i%2 == 1 {
			kind = KindReturn
		}
		e := Entry{Kind: kind, Counter: uint64(100 + i), Addr: uint64(0x400010 + 16*(i/2)), ThreadID: uint64(1 + i%2)}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	l.AddCounter(999)
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), entries
}

// readLenient is the test helper: ReadLenient must never fail on torn or
// corrupted inputs (only on real I/O errors).
func readLenient(t *testing.T, data []byte) (*Log, *RecoveryReport) {
	t.Helper()
	log, rep, err := ReadLenient(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadLenient: %v", err)
	}
	if log == nil || rep == nil {
		t.Fatal("ReadLenient returned nil log or report")
	}
	return log, rep
}

// sameEntries compares entry slices treating nil and empty as equal.
func sameEntries(got, want []Entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// hasClass reports whether the report observed the corruption class.
func hasClass(rep *RecoveryReport, c Corruption) bool {
	for _, have := range rep.Corruption {
		if have == c {
			return true
		}
	}
	return false
}

// TestReadLenientClean: an undamaged stream salvages everything and the
// report is clean — lenient reading is a strict superset of Read.
func TestReadLenientClean(t *testing.T) {
	raw, want := encodeCurrent(t, 6)
	log, rep := readLenient(t, raw)
	if !rep.Clean() {
		t.Fatalf("clean input produced dirty report: %v", rep)
	}
	if rep.EntriesSalvaged != 6 || rep.EntriesPresent != 6 {
		t.Fatalf("salvaged %d/%d, want 6/6", rep.EntriesSalvaged, rep.EntriesPresent)
	}
	if rep.BytesSalvaged != rep.BytesRead {
		t.Fatalf("BytesSalvaged %d != BytesRead %d on clean input", rep.BytesSalvaged, rep.BytesRead)
	}
	if got := log.Entries(); !sameEntries(got, want) {
		t.Fatalf("entries = %+v, want %+v", got, want)
	}
	if log.PID() != 42 || log.ProfilerAddr() != 0x400000 || log.LoadCounter() != 999 {
		t.Fatalf("header fields lost: pid=%d addr=%#x counter=%d", log.PID(), log.ProfilerAddr(), log.LoadCounter())
	}
	if log.Active() {
		t.Fatal("recovered log must be inactive")
	}
}

// TestReadLenientTruncationMatrix cuts a valid 2-entry stream at every
// 8-byte boundary of the headers and the first two entries, asserting the
// exact salvage count at each cut — the crash-consistency contract that a
// tear at any word boundary loses at most the uncommitted tail.
func TestReadLenientTruncationMatrix(t *testing.T) {
	raw, want := encodeCurrent(t, 2)
	entriesStart := HeaderSize + SegHeaderSize
	total := entriesStart + 2*EntrySize // 368 bytes
	if len(raw) != total {
		t.Fatalf("fixture is %d bytes, want %d", len(raw), total)
	}
	for cut := 0; cut <= total; cut += 8 {
		torn := faultinject.Truncate(raw, cut)
		log, rep := readLenient(t, torn)

		wantSalvaged := 0
		if cut > entriesStart {
			wantSalvaged = (cut - entriesStart) / EntrySize
		}
		if rep.EntriesSalvaged != wantSalvaged {
			t.Errorf("cut %d: salvaged %d entries, want %d (report %v)", cut, rep.EntriesSalvaged, wantSalvaged, rep)
			continue
		}
		if got := log.Entries(); !sameEntries(got, want[:wantSalvaged]) {
			t.Errorf("cut %d: entries = %+v, want %+v", cut, got, want[:wantSalvaged])
		}

		switch {
		case cut == 0:
			if !hasClass(rep, CorruptEmptyInput) {
				t.Errorf("cut 0: classes %v, want empty-input", rep.Corruption)
			}
		case cut < entriesStart:
			// Inside the main header or the segment header: both report
			// a truncated header.
			if !hasClass(rep, CorruptTruncatedHeader) {
				t.Errorf("cut %d: classes %v, want truncated-header", cut, rep.Corruption)
			}
		case cut < total:
			if (cut-entriesStart)%EntrySize != 0 && !hasClass(rep, CorruptTornEntry) {
				t.Errorf("cut %d: classes %v, want torn-entry", cut, rep.Corruption)
			}
		default:
			if !rep.Clean() {
				t.Errorf("cut %d (no cut): dirty report %v", cut, rep)
			}
		}

		// Every salvaged log must be strictly loadable after re-encoding:
		// recovery output is indistinguishable from a clean recording.
		var out bytes.Buffer
		if _, err := log.WriteTo(&out); err != nil {
			t.Fatalf("cut %d: re-encode: %v", cut, err)
		}
		if _, err := Read(&out); err != nil {
			t.Fatalf("cut %d: strict Read of salvaged log: %v", cut, err)
		}
	}
}

// TestReadLenientTailPastEOF: a header whose tail (and capacity) promise
// more entries than the stream carries is clamped to the last fully
// committed entry instead of being rejected.
func TestReadLenientTailPastEOF(t *testing.T) {
	raw, want := encodeCurrent(t, 4)
	binary.LittleEndian.PutUint64(raw[wordTail*8:], 4000)
	binary.LittleEndian.PutUint64(raw[wordCapacity*8:], 4000)
	// Since v3 the per-segment header is authoritative: inflate it too.
	binary.LittleEndian.PutUint64(raw[(HeaderWords+segWordTail)*8:], 4000)
	binary.LittleEndian.PutUint64(raw[(HeaderWords+segWordCapacity)*8:], 4000)

	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("strict Read: err = %v, want ErrTruncated", err)
	}
	log, rep := readLenient(t, raw)
	if !rep.TailClamped || !hasClass(rep, CorruptTailRange) {
		t.Fatalf("report = %v, want tail clamp", rep)
	}
	if got := log.Entries(); !sameEntries(got, want) {
		t.Fatalf("entries = %+v, want %+v", got, want)
	}
}

// TestReadLenientCommitMarkers: in-flight (zero), released (tombstone) and
// garbage commit markers are dropped and counted by class; committed
// entries around them survive.
func TestReadLenientCommitMarkers(t *testing.T) {
	l, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(slot uint64, tid uint64) {
		l.Commit(slot, Entry{Kind: KindCall, Counter: 10 * (slot + 1), Addr: 0xC0DE, ThreadID: tid})
	}
	start, n := l.Reserve(5)
	if n != 5 {
		t.Fatalf("reserved %d slots, want 5", n)
	}
	commit(start, 1)       // committed
	_ = start + 1          // slot 1: left in flight (zero marker)
	l.Release(start + 2)   // tombstone
	commit(start+3, 1<<40) // garbage marker (implausible thread ID)
	commit(start+4, 2)     // committed
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	log, rep := readLenient(t, buf.Bytes())
	if rep.EntriesSalvaged != 2 || rep.DroppedInFlight != 1 || rep.DroppedTombstone != 1 || rep.DroppedGarbage != 1 {
		t.Fatalf("report = %v, want 2 salvaged, 1 in-flight, 1 tombstone, 1 garbage", rep)
	}
	if !hasClass(rep, CorruptGarbageMarker) {
		t.Fatalf("classes = %v, want garbage-commit-marker", rep.Corruption)
	}
	got := log.Entries()
	if len(got) != 2 || got[0].ThreadID != 1 || got[1].ThreadID != 2 {
		t.Fatalf("entries = %+v, want the two committed ones", got)
	}
}

// TestReadLenientBitFlippedHeader: seed-driven bit flips in the header
// region (past the magic word) still salvage the full entry region — the
// header fields are either normalized or clamped against what is
// physically present.
func TestReadLenientBitFlippedHeader(t *testing.T) {
	raw, _ := encodeCurrent(t, 8)
	inj := faultinject.New(7)
	// Flip bits across the mutable header region only: words 1.. (the
	// magic in word 0 is the one unrecoverable anchor, by design).
	flipped := inj.FlipBits(raw, 8, HeaderSize, 64)

	log, rep := readLenient(t, flipped)
	if rep.EntriesSalvaged != 8 {
		t.Fatalf("salvaged %d entries, want all 8 (report %v)", rep.EntriesSalvaged, rep)
	}
	if rep.Clean() {
		t.Fatalf("64 header bit flips produced a clean report: %v", rep)
	}
	var out bytes.Buffer
	if _, err := log.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&out); err != nil {
		t.Fatalf("strict Read of salvaged log: %v", err)
	}
}

// TestReadLenientBitFlippedEntries: bit flips confined to the entry region
// never panic and drop at most the entries whose commit marker was hit.
func TestReadLenientBitFlippedEntries(t *testing.T) {
	raw, _ := encodeCurrent(t, 16)
	inj := faultinject.New(11)
	flipped := inj.FlipBits(raw, HeaderSize, len(raw), 48)

	log, rep := readLenient(t, flipped)
	if rep.EntriesPresent != 16 {
		t.Fatalf("present %d, want 16", rep.EntriesPresent)
	}
	if rep.EntriesSalvaged+rep.EntriesDropped != 16 {
		t.Fatalf("salvaged %d + dropped %d != 16", rep.EntriesSalvaged, rep.EntriesDropped)
	}
	if log.Len() != rep.EntriesSalvaged {
		t.Fatalf("log.Len %d != salvaged %d", log.Len(), rep.EntriesSalvaged)
	}
}

// TestReadLenientGarbage: arbitrary non-log bytes salvage nothing but
// produce a usable empty log and a bad-magic report, never an error.
func TestReadLenientGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		{1, 2, 3},
		bytes.Repeat([]byte{0xFF}, 512),
		make([]byte, 512),
	} {
		log, rep := readLenient(t, data)
		if log.Len() != 0 {
			t.Fatalf("garbage salvaged %d entries", log.Len())
		}
		if len(data) == 0 {
			if !hasClass(rep, CorruptEmptyInput) {
				t.Fatalf("empty: classes %v", rep.Corruption)
			}
		} else if !hasClass(rep, CorruptBadMagic) {
			t.Fatalf("garbage: classes %v, want bad-magic", rep.Corruption)
		}
	}
}

// TestReadTypedErrors pins the typed decode errors the CLI keys its
// recovery hint on.
func TestReadTypedErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrEmptyLog) || !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty: err = %v, want ErrEmptyLog wrapping ErrTruncated", err)
	}
	if _, err := Read(bytes.NewReader(make([]byte, 32))); !errors.Is(err, ErrTruncatedHeader) || !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header: err = %v, want ErrTruncatedHeader wrapping ErrTruncated", err)
	}
	raw, _ := encodeCurrent(t, 1)
	if _, err := Read(bytes.NewReader(raw[:HeaderSize-8])); !errors.Is(err, ErrTruncatedHeader) {
		t.Fatalf("torn header: err = %v, want ErrTruncatedHeader", err)
	}
	// A non-log shorter than the header is short before it is foreign.
	if _, err := Read(bytes.NewReader(make([]byte, 64))); !errors.Is(err, ErrTruncatedHeader) {
		t.Fatalf("64 zero bytes: err = %v, want ErrTruncatedHeader", err)
	}
}
