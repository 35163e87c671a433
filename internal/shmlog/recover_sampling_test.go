package shmlog

import (
	"bytes"
	"testing"
)

// encodeSampled persists a committed sampled log (period in the header,
// FlagSampled set) and returns the raw bytes plus the entries it carries.
func encodeSampled(t *testing.T, n int, period uint64) ([]byte, []Entry) {
	t.Helper()
	l, err := New(n, WithPID(42), WithProfilerAddr(0x400000), WithSamplePeriod(period))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		kind := KindCall
		if i%2 == 1 {
			kind = KindReturn
		}
		e := Entry{Kind: kind, Counter: uint64(100 + i), Addr: uint64(0x400010 + 16*(i/2)), ThreadID: 1}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), entries
}

// TestReadLenientTornSampledLog: tearing a period-4 sampled log mid-entry
// must salvage the committed prefix AND carry the sampling metadata through
// the rebuild — FlagSampled and the period word are v3 vocabulary, not
// unknown-bit corruption, and without them the analyzer would silently
// underweight the salvaged profile by the period.
func TestReadLenientTornSampledLog(t *testing.T) {
	const n, period = 8, 4
	raw, want := encodeSampled(t, n, period)

	entriesStart := HeaderSize + SegHeaderSize
	cut := entriesStart + 5*EntrySize + 7 // mid-sixth-entry
	log, rep := readLenient(t, raw[:cut])

	if rep.Clean() {
		t.Fatal("torn stream reported clean")
	}
	if hasClass(rep, CorruptUnknownFlags) {
		t.Fatalf("sampling words misread as unknown flags: %v", rep.Corruption)
	}
	if rep.EntriesSalvaged != 5 {
		t.Fatalf("salvaged %d entries, want 5", rep.EntriesSalvaged)
	}
	if !sameEntries(log.Entries(), want[:5]) {
		t.Fatalf("salvaged entries = %+v, want prefix of %+v", log.Entries(), want[:5])
	}
	if p := log.SamplePeriod(); p != period {
		t.Fatalf("salvaged sample period = %d, want %d", p, period)
	}
	if log.Flags()&FlagSampled == 0 {
		t.Fatal("salvaged log lost FlagSampled")
	}

	// The salvaged log must re-encode into a strictly readable stream that
	// still carries the period.
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := Read(&buf)
	if err != nil {
		t.Fatalf("strict re-read of salvage: %v", err)
	}
	if p := again.SamplePeriod(); p != period {
		t.Fatalf("re-encoded sample period = %d, want %d", p, period)
	}
}
