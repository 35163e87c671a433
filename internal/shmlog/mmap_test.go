//go:build linux || darwin

package shmlog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mmapPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "log.shm")
}

// TestMmapRoundTrip: entries appended through one mapping are visible,
// committed and identical through a second mapping of the same file — the
// property every cross-process piece rests on.
func TestMmapRoundTrip(t *testing.T) {
	path := mmapPath(t)
	creator, err := CreateFile(path, 16, WithPID(42), WithProfilerAddr(0x1000))
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	want := []Entry{
		{Kind: KindCall, Counter: 1, Addr: 0xA, ThreadID: 1},
		{Kind: KindReturn, Counter: 5, Addr: 0xA, ThreadID: 1},
		{Kind: KindCall, Counter: 9, Addr: 0xB, ThreadID: 2},
	}
	for _, e := range want {
		if err := creator.Append(e); err != nil {
			t.Fatal(err)
		}
	}

	attached, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer attached.Close()
	if got := attached.Capacity(); got != 16 {
		t.Fatalf("Capacity = %d, want 16", got)
	}
	if got := attached.PID(); got != 42 {
		t.Fatalf("PID = %d, want 42", got)
	}
	if got := attached.ProfilerAddr(); got != 0x1000 {
		t.Fatalf("ProfilerAddr = %#x, want 0x1000", got)
	}
	if got := attached.Entries(); !sameEntries(got, want) {
		t.Fatalf("entries via second mapping = %+v, want %+v", got, want)
	}

	// And the reverse direction: an append through the attached mapping is
	// visible to the creator.
	extra := Entry{Kind: KindReturn, Counter: 11, Addr: 0xB, ThreadID: 2}
	if err := attached.Append(extra); err != nil {
		t.Fatal(err)
	}
	if got := creator.Entries(); !sameEntries(got, append(append([]Entry(nil), want...), extra)) {
		t.Fatalf("creator sees %+v after attached append", got)
	}
}

// TestMmapHandshake exercises the attach-protocol words: creator PID,
// attach generation, and the recorder-ready flag — all through two
// mappings.
func TestMmapHandshake(t *testing.T) {
	path := mmapPath(t)
	creator, err := CreateFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	if got := creator.CreatorPID(); got != uint64(os.Getpid()) {
		t.Fatalf("CreatorPID = %d, want %d", got, os.Getpid())
	}
	if creator.AttachGen() != 0 {
		t.Fatalf("AttachGen = %d before any attach, want 0", creator.AttachGen())
	}
	if creator.Ready() {
		t.Fatal("Ready before SetReady")
	}
	if creator.WaitReady(time.Millisecond) {
		t.Fatal("WaitReady succeeded with the bit clear")
	}

	attached, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer attached.Close()
	if got := creator.AttachGen(); got != 1 {
		t.Fatalf("AttachGen after one attach = %d, want 1", got)
	}
	if got := attached.CreatorPID(); got != uint64(os.Getpid()) {
		t.Fatalf("attached CreatorPID = %d, want %d", got, os.Getpid())
	}

	creator.SetReady(true)
	if !attached.WaitReady(time.Second) {
		t.Fatal("ready bit not visible through second mapping")
	}
	creator.SetReady(false)
	if attached.Ready() {
		t.Fatal("ready bit still set after clear")
	}
}

// TestMmapDroppedShared: the drop counter lives in the header, so drops
// suffered through one mapping are visible through the other.
func TestMmapDroppedShared(t *testing.T) {
	path := mmapPath(t)
	creator, err := CreateFile(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	attached, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer attached.Close()

	e := Entry{Kind: KindCall, Counter: 1, Addr: 0xA, ThreadID: 1}
	if err := attached.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := attached.Append(e); !errors.Is(err, ErrFull) {
		t.Fatalf("append past capacity: err = %v, want ErrFull", err)
	}
	if got := creator.Dropped(); got != 1 {
		t.Fatalf("creator Dropped = %d, want 1 (drop happened in the other mapping)", got)
	}
}

// TestMmapRawFileRead: the raw backing file is itself a decodable log —
// strict Read accepts it (capacity word bounds the region, tail bounds the
// entries) and ReadLenient reports it clean, so crash salvage needs no
// special mmap path.
func TestMmapRawFileRead(t *testing.T) {
	path := mmapPath(t)
	l, err := CreateFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Kind: KindCall, Counter: 2, Addr: 0xF0, ThreadID: 1},
		{Kind: KindCall, Counter: 3, Addr: 0xF1, ThreadID: 1},
		{Kind: KindReturn, Counter: 7, Addr: 0xF1, ThreadID: 1},
	}
	for _, e := range want {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Msync(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	strict, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("strict Read of raw mapping file: %v", err)
	}
	if got := strict.Entries(); !sameEntries(got, want) {
		t.Fatalf("strict entries = %+v, want %+v", got, want)
	}

	lenient, rep, err := ReadLenient(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("lenient report of an intact raw file not clean: %v", rep)
	}
	if got := lenient.Entries(); !sameEntries(got, want) {
		t.Fatalf("lenient entries = %+v, want %+v", got, want)
	}
}

// TestMmapClose: a closed log reads as empty and inactive instead of
// faulting, and the backing file persists for offline salvage.
func TestMmapClose(t *testing.T) {
	path := mmapPath(t)
	l, err := CreateFile(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Kind: KindCall, Counter: 1, Addr: 0xA, ThreadID: 1}); err != nil {
		t.Fatal(err)
	}
	if !l.Mapped() || l.Path() != path {
		t.Fatalf("Mapped=%v Path=%q before Close", l.Mapped(), l.Path())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Mapped() {
		t.Fatal("Mapped still true after Close")
	}
	if err := l.Append(Entry{Kind: KindCall, Counter: 2, Addr: 0xB, ThreadID: 1}); !errors.Is(err, ErrInactive) {
		t.Fatalf("append after Close: err = %v, want ErrInactive", err)
	}
	if l.Len() != 0 {
		t.Fatalf("Len after Close = %d, want 0", l.Len())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("backing file gone after Close: %v", err)
	}
}

// TestMmapOpenValidation: OpenFile rejects files that are not (or no
// longer) valid logs.
func TestMmapOpenValidation(t *testing.T) {
	dir := t.TempDir()

	missing := filepath.Join(dir, "nope.shm")
	if _, err := OpenFile(missing); err == nil {
		t.Fatal("OpenFile of a missing path succeeded")
	}

	tiny := filepath.Join(dir, "tiny.shm")
	if err := os.WriteFile(tiny, make([]byte, HeaderSize-8), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(tiny); !errors.Is(err, ErrTruncated) {
		t.Fatalf("OpenFile of a sub-header file: err = %v, want ErrTruncated", err)
	}

	garbage := filepath.Join(dir, "garbage.shm")
	if err := os.WriteFile(garbage, bytes.Repeat([]byte{0xAB}, HeaderSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(garbage); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("OpenFile of garbage: err = %v, want ErrBadMagic", err)
	}

	// A valid header whose capacity claims more entries than the file holds
	// (e.g. a truncated copy) is rejected rather than mapped short.
	short := filepath.Join(dir, "short.shm")
	l, err := CreateFile(short, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(short, HeaderSize+2*EntrySize); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(short); !errors.Is(err, ErrTruncated) {
		t.Fatalf("OpenFile of truncated file: err = %v, want ErrTruncated", err)
	}
}

// TestMmapCreateRejections: modes that cannot work across processes are
// refused at creation.
func TestMmapCreateRejections(t *testing.T) {
	if _, err := CreateFile(mmapPath(t), 4, WithSync(SyncMutex)); !errors.Is(err, ErrMapped) {
		t.Fatalf("SyncMutex: err = %v, want ErrMapped", err)
	}
	if _, err := CreateFile(mmapPath(t), 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// TestMmapObserveFile: a read-only observer mapping sees entries committed
// by a writer mapping without bumping the attach generation or otherwise
// touching the shared region, and its cursor tails new commits live.
func TestMmapObserveFile(t *testing.T) {
	path := mmapPath(t)
	creator, err := CreateFile(path, 32, WithPID(77), WithProfilerAddr(0x2000))
	if err != nil {
		t.Fatal(err)
	}
	defer creator.Close()
	if err := creator.Append(Entry{Kind: KindCall, Counter: 3, Addr: 0xC, ThreadID: 1}); err != nil {
		t.Fatal(err)
	}

	obs, err := ObserveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	if !obs.ReadOnly() || !obs.Mapped() {
		t.Fatalf("observer: ReadOnly=%v Mapped=%v, want true/true", obs.ReadOnly(), obs.Mapped())
	}
	if got := creator.AttachGen(); got != 0 {
		t.Fatalf("observer bumped attach generation to %d; observers must be invisible", got)
	}
	if obs.PID() != 77 || obs.Capacity() != 32 {
		t.Fatalf("observer header: pid=%d cap=%d", obs.PID(), obs.Capacity())
	}

	// Live tailing: entries committed after the observer attached appear
	// through its cursor.
	cur := obs.Cursor()
	if got := cur.Next(nil); len(got) != 1 || got[0].Addr != 0xC {
		t.Fatalf("first drain = %+v, want the pre-attach entry", got)
	}
	if err := creator.Append(Entry{Kind: KindReturn, Counter: 9, Addr: 0xC, ThreadID: 1}); err != nil {
		t.Fatal(err)
	}
	if got := cur.Next(nil); len(got) != 1 || got[0].Kind != KindReturn {
		t.Fatalf("live drain = %+v, want the post-attach return", got)
	}

	// A writer attach still bumps the generation — only observers are
	// exempt.
	w, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := obs.AttachGen(); got != 1 {
		t.Fatalf("attach generation through observer = %d, want 1", got)
	}
	if err := obs.Msync(); err != nil {
		t.Fatalf("observer Msync: %v", err)
	}
}

// TestMmapObserveValidation: observers reject missing, truncated and
// non-teeperf files with the same typed errors as OpenFile.
func TestMmapObserveValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := ObserveFile(filepath.Join(dir, "absent.shm")); err == nil {
		t.Fatal("observing a missing file succeeded")
	}
	small := filepath.Join(dir, "small.shm")
	if err := os.WriteFile(small, make([]byte, HeaderSize-8), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ObserveFile(small); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short file: err = %v, want ErrTruncated", err)
	}
	junk := filepath.Join(dir, "junk.shm")
	if err := os.WriteFile(junk, bytes.Repeat([]byte{0xEE}, HeaderSize+EntrySize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ObserveFile(junk); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("junk file: err = %v, want ErrBadMagic", err)
	}
}
