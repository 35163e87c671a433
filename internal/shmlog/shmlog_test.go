package shmlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name     string
		capacity int
		opts     []Option
		wantErr  bool
	}{
		{name: "zero capacity", capacity: 0, wantErr: true},
		{name: "negative capacity", capacity: -5, wantErr: true},
		{name: "one entry", capacity: 1},
		{name: "mutex mode", capacity: 4, opts: []Option{WithSync(SyncMutex)}},
		{name: "bad sync mode", capacity: 4, opts: []Option{WithSync(Sync(99))}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.capacity, tt.opts...)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d) error = %v, wantErr %v", tt.capacity, err, tt.wantErr)
			}
		})
	}
}

func TestHeaderFields(t *testing.T) {
	l, err := New(16, WithPID(4242), WithProfilerAddr(0x401000))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.PID(); got != 4242 {
		t.Errorf("PID() = %d, want 4242", got)
	}
	if got := l.ProfilerAddr(); got != 0x401000 {
		t.Errorf("ProfilerAddr() = %#x, want 0x401000", got)
	}
	if got := l.Version(); got != Version {
		t.Errorf("Version() = %d, want %d", got, Version)
	}
	if got := l.Capacity(); got != 16 {
		t.Errorf("Capacity() = %d, want 16", got)
	}
	if !l.Active() {
		t.Error("new log should be active by default")
	}
}

func TestAppendAndDecode(t *testing.T) {
	l, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	in := []Entry{
		{Kind: KindCall, Counter: 100, Addr: 0x400010, ThreadID: 1},
		{Kind: KindReturn, Counter: 250, Addr: 0x400010, ThreadID: 1},
		{Kind: KindCall, Counter: 300, Addr: 0x400020, ThreadID: 2},
	}
	for i, e := range in {
		if err := l.Append(e); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if got := l.Len(); got != len(in) {
		t.Fatalf("Len() = %d, want %d", got, len(in))
	}
	for i, want := range in {
		got, err := l.Entry(i)
		if err != nil {
			t.Fatalf("Entry(%d): %v", i, err)
		}
		if got != want {
			t.Errorf("Entry(%d) = %+v, want %+v", i, got, want)
		}
	}
}

func TestAppendKindEncoding(t *testing.T) {
	// Counter values near the 63-bit boundary must round-trip with the
	// kind bit intact.
	l, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	huge := counterMask // maximum representable counter
	if err := l.Append(Entry{Kind: KindReturn, Counter: huge, Addr: 1, ThreadID: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := l.Entry(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindReturn {
		t.Errorf("Kind = %v, want return", got.Kind)
	}
	if got.Counter != huge {
		t.Errorf("Counter = %d, want %d", got.Counter, huge)
	}
}

func TestAppendTruncatesCounterTo63Bits(t *testing.T) {
	l, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Kind: KindCall, Counter: 1 << 63, Addr: 1, ThreadID: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := l.Entry(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counter != 0 {
		t.Errorf("Counter = %d, want 0 (bit 63 must be masked)", got.Counter)
	}
	if got.Kind != KindCall {
		t.Errorf("Kind = %v, want call", got.Kind)
	}
}

func TestAppendFull(t *testing.T) {
	l, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	e := Entry{Kind: KindCall, Counter: 1, Addr: 1, ThreadID: 1}
	if err := l.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(e); !errors.Is(err, ErrFull) {
			t.Fatalf("Append on full log: err = %v, want ErrFull", err)
		}
	}
	if got := l.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3", got)
	}
	if got := l.Len(); got != 2 {
		t.Errorf("Len() = %d, want 2", got)
	}
}

func TestAppendInactive(t *testing.T) {
	l, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	l.SetActive(false)
	if err := l.Append(Entry{Kind: KindCall, Counter: 1, Addr: 1, ThreadID: 1}); !errors.Is(err, ErrInactive) {
		t.Fatalf("err = %v, want ErrInactive", err)
	}
	l.SetActive(true)
	if err := l.Append(Entry{Kind: KindCall, Counter: 1, Addr: 1, ThreadID: 1}); err != nil {
		t.Fatalf("after re-activation: %v", err)
	}
}

func TestEventMaskFiltering(t *testing.T) {
	l, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	l.ClearFlag(EventReturn)
	if err := l.Append(Entry{Kind: KindReturn, Counter: 1, Addr: 1, ThreadID: 1}); !errors.Is(err, ErrFiltered) {
		t.Fatalf("return append: err = %v, want ErrFiltered", err)
	}
	if err := l.Append(Entry{Kind: KindCall, Counter: 1, Addr: 1, ThreadID: 1}); err != nil {
		t.Fatalf("call append: %v", err)
	}
	l.ClearFlag(EventCall)
	if err := l.Append(Entry{Kind: KindCall, Counter: 1, Addr: 1, ThreadID: 1}); !errors.Is(err, ErrFiltered) {
		t.Fatalf("masked call append: err = %v, want ErrFiltered", err)
	}
	if got := l.Len(); got != 1 {
		t.Errorf("Len() = %d, want 1", got)
	}
}

func TestAppendInvalidKind(t *testing.T) {
	l, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Kind: Kind(7), Counter: 1}); err == nil {
		t.Fatal("Append with invalid kind should fail")
	}
}

func TestEntryRange(t *testing.T) {
	l, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Entry(0); !errors.Is(err, ErrRange) {
		t.Fatalf("Entry(0) on empty log: err = %v, want ErrRange", err)
	}
	if _, err := l.Entry(-1); !errors.Is(err, ErrRange) {
		t.Fatalf("Entry(-1): err = %v, want ErrRange", err)
	}
}

func TestCounterWord(t *testing.T) {
	l, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LoadCounter(); got != 0 {
		t.Fatalf("LoadCounter() = %d, want 0", got)
	}
	if got := l.AddCounter(5); got != 5 {
		t.Fatalf("AddCounter(5) = %d, want 5", got)
	}
	if got := l.AddCounter(1); got != 6 {
		t.Fatalf("AddCounter(1) = %d, want 6", got)
	}
	if got := l.LoadCounter(); got != 6 {
		t.Fatalf("LoadCounter() = %d, want 6", got)
	}
}

func TestReset(t *testing.T) {
	l, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	e := Entry{Kind: KindCall, Counter: 1, Addr: 1, ThreadID: 1}
	if err := l.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(e); !errors.Is(err, ErrFull) {
		t.Fatal("expected full")
	}
	l.AddCounter(10)
	l.Reset()
	if l.Len() != 0 || l.Dropped() != 0 || l.LoadCounter() != 0 {
		t.Errorf("Reset left state: len=%d dropped=%d counter=%d", l.Len(), l.Dropped(), l.LoadCounter())
	}
	if err := l.Append(e); err != nil {
		t.Fatalf("Append after reset: %v", err)
	}
}

func TestConcurrentAppendLockFree(t *testing.T) {
	testConcurrentAppend(t, SyncAtomic)
}

func TestConcurrentAppendMutex(t *testing.T) {
	testConcurrentAppend(t, SyncMutex)
}

func testConcurrentAppend(t *testing.T, mode Sync) {
	t.Helper()
	const (
		threads       = 8
		perThread     = 2000
		totalCapacity = threads * perThread
	)
	l, err := New(totalCapacity, WithSync(mode))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for tid := 1; tid <= threads; tid++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				kind := KindCall
				if i%2 == 1 {
					kind = KindReturn
				}
				e := Entry{Kind: kind, Counter: uint64(i), Addr: tid*1000 + uint64(i), ThreadID: tid}
				if err := l.Append(e); err != nil {
					t.Errorf("thread %d append %d: %v", tid, i, err)
					return
				}
			}
		}(uint64(tid))
	}
	wg.Wait()

	if got := l.Len(); got != totalCapacity {
		t.Fatalf("Len() = %d, want %d", got, totalCapacity)
	}
	// Invariant: every slot written exactly once, and per-thread order is
	// preserved (counter values strictly increasing per thread).
	lastCounter := make(map[uint64]int64, threads)
	seen := make(map[uint64]int, threads)
	for i := 0; i < l.Len(); i++ {
		e, err := l.Entry(i)
		if err != nil {
			t.Fatal(err)
		}
		if e.ThreadID < 1 || e.ThreadID > threads {
			t.Fatalf("entry %d: unexpected thread %d", i, e.ThreadID)
		}
		if last, ok := lastCounter[e.ThreadID]; ok && int64(e.Counter) <= last {
			t.Fatalf("entry %d: thread %d counter %d not increasing (last %d)",
				i, e.ThreadID, e.Counter, last)
		}
		lastCounter[e.ThreadID] = int64(e.Counter)
		seen[e.ThreadID]++
	}
	for tid, n := range seen {
		if n != perThread {
			t.Errorf("thread %d wrote %d entries, want %d", tid, n, perThread)
		}
	}
}

func TestConcurrentAppendOverflowAccounting(t *testing.T) {
	const capacity = 100
	l, err := New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		full atomic64
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				err := l.Append(Entry{Kind: KindCall, Counter: uint64(i), ThreadID: tid})
				if errors.Is(err, ErrFull) {
					full.add(1)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if got := l.Len(); got != capacity {
		t.Errorf("Len() = %d, want %d", got, capacity)
	}
	if got, want := l.Dropped(), uint64(400-capacity); got != want {
		t.Errorf("Dropped() = %d, want %d", got, want)
	}
	if got := full.load(); got != 400-capacity {
		t.Errorf("ErrFull count = %d, want %d", got, 400-capacity)
	}
}

func TestRoundTripPersistence(t *testing.T) {
	l, err := New(64, WithPID(7), WithProfilerAddr(0xdead0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var want []Entry
	for i := 0; i < 40; i++ {
		kind := KindCall
		if rng.Intn(2) == 1 {
			kind = KindReturn
		}
		e := Entry{
			Kind:     kind,
			Counter:  rng.Uint64() & counterMask,
			Addr:     rng.Uint64(),
			ThreadID: uint64(rng.Intn(8)),
		}
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
		if e.ThreadID == 0 {
			// Zero is the in-flight marker: Commit never publishes the
			// slot's words, so it persists and decodes as zero words.
			e = Entry{Kind: KindCall}
		}
		want = append(want, e)
	}
	l.AddCounter(12345)

	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wantSize := int64(HeaderSize + SegHeaderSize + 40*EntrySize)
	if int64(buf.Len()) != wantSize {
		t.Fatalf("persisted size = %d, want %d", buf.Len(), wantSize)
	}

	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PID() != 7 || got.ProfilerAddr() != 0xdead0 {
		t.Errorf("header mismatch: pid=%d addr=%#x", got.PID(), got.ProfilerAddr())
	}
	if got.LoadCounter() != 12345 {
		t.Errorf("counter = %d, want 12345", got.LoadCounter())
	}
	if got.Active() {
		t.Error("decoded log must be inactive")
	}
	entries := got.Entries()
	if len(entries) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(entries), len(want))
	}
	for i := range want {
		if entries[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, entries[i], want[i])
		}
	}
}

func TestReadErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		buf := make([]byte, HeaderSize)
		if _, err := Read(bytes.NewReader(buf)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	withVersion := func(v uint64) []byte {
		raw, _ := encodeCurrent(t, 4)
		binary.LittleEndian.PutUint64(raw[wordVersion*8:], v)
		return raw
	}
	t.Run("bad version", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(withVersion(99))); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("err = %v, want ErrBadVersion", err)
		}
	})
	// The retired layouts fail typed, strictly and leniently. A version-1
	// header was 8 packed words with the flags in word 0 and the magic in
	// word 7, followed directly by the entries.
	v1Shaped := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint64(v1Shaped[0:], EventCall|EventReturn)
	binary.LittleEndian.PutUint64(v1Shaped[8:], 1)
	binary.LittleEndian.PutUint64(v1Shaped[7*8:], Magic)
	for off := 64; off < len(v1Shaped); off += EntrySize {
		binary.LittleEndian.PutUint64(v1Shaped[off:], uint64(off))
		binary.LittleEndian.PutUint64(v1Shaped[off+8:], 0x400010)
		binary.LittleEndian.PutUint64(v1Shaped[off+16:], 1)
	}
	for _, tc := range []struct {
		name  string
		raw   []byte
		want  error
		class Corruption
	}{
		{"version 1 word", withVersion(1), ErrBadVersion, CorruptBadVersion},
		{"version 2 word", withVersion(2), ErrBadVersion, CorruptBadVersion},
		{"v1-shaped header", v1Shaped, ErrBadMagic, CorruptBadMagic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(tc.raw)); !errors.Is(err, tc.want) {
				t.Fatalf("Read: err = %v, want %v", err, tc.want)
			}
			log, rep := readLenient(t, tc.raw)
			if !hasClass(rep, tc.class) {
				t.Fatalf("ReadLenient classes %v, want %s", rep.Corruption, tc.class)
			}
			var out bytes.Buffer
			if _, err := log.WriteTo(&out); err != nil {
				t.Fatal(err)
			}
			if _, err := Read(&out); err != nil {
				t.Fatalf("strict Read of salvaged log: %v", err)
			}
		})
	}
	t.Run("truncated body", func(t *testing.T) {
		l, err := New(8)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := l.Append(Entry{Kind: KindCall, Counter: uint64(i), ThreadID: 1}); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		cut := buf.Bytes()[:buf.Len()-5]
		if _, err := Read(bytes.NewReader(cut)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", err)
		}
	})
}

func TestPersistenceRoundTripProperty(t *testing.T) {
	// Property: any sequence of valid entries survives a
	// serialize/deserialize round trip bit-exactly.
	f := func(raw []struct {
		Ret     bool
		Counter uint64
		Addr    uint64
		Tid     uint16
	}) bool {
		if len(raw) > 512 {
			raw = raw[:512]
		}
		l, err := New(len(raw) + 1)
		if err != nil {
			return false
		}
		want := make([]Entry, 0, len(raw))
		for _, r := range raw {
			kind := KindCall
			if r.Ret {
				kind = KindReturn
			}
			e := Entry{Kind: kind, Counter: r.Counter & counterMask, Addr: r.Addr, ThreadID: uint64(r.Tid)}
			if err := l.Append(e); err != nil {
				return false
			}
			want = append(want, e)
		}
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		entries := got.Entries()
		if len(entries) != len(want) {
			return false
		}
		for i := range want {
			if entries[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindCall, "call"},
		{KindReturn, "return"},
		{Kind(9), "kind(9)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}

func TestWriteToFailure(t *testing.T) {
	l, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Kind: KindCall, Counter: 1, ThreadID: 1}); err != nil {
		t.Fatal(err)
	}
	w := &limitedWriter{limit: 16}
	if _, err := l.WriteTo(w); err == nil {
		t.Fatal("WriteTo with failing writer should error")
	}
}

// limitedWriter fails after limit bytes, for failure-injection tests.
type limitedWriter struct {
	n, limit int
}

func (w *limitedWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		return 0, io.ErrShortWrite
	}
	w.n += len(p)
	return len(p), nil
}

// atomic64 is a tiny helper to avoid importing sync/atomic in tests twice.
type atomic64 struct {
	mu sync.Mutex
	v  int
}

func (a *atomic64) add(d int) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.v }
