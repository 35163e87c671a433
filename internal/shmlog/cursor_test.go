package shmlog

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCursorSequential(t *testing.T) {
	l, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	c := l.Cursor()
	if got := c.Next(nil); len(got) != 0 {
		t.Fatalf("cursor on empty log returned %d entries", len(got))
	}

	for i := 0; i < 3; i++ {
		if err := l.Append(Entry{Kind: KindCall, Counter: uint64(i + 1), Addr: 0x100, ThreadID: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got := c.Next(nil)
	if len(got) != 3 {
		t.Fatalf("first drain returned %d entries, want 3", len(got))
	}
	for i, e := range got {
		if e.Counter != uint64(i+1) || e.Addr != 0x100 || e.ThreadID != 1 || e.Kind != KindCall {
			t.Errorf("entry %d = %+v", i, e)
		}
	}
	if got := c.Next(nil); len(got) != 0 {
		t.Fatalf("second drain re-returned %d entries", len(got))
	}

	if err := l.Append(Entry{Kind: KindReturn, Counter: 9, Addr: 0x100, ThreadID: 1}); err != nil {
		t.Fatal(err)
	}
	got = c.Next(nil)
	if len(got) != 1 || got[0].Kind != KindReturn || got[0].Counter != 9 {
		t.Fatalf("incremental drain = %+v, want one return", got)
	}
	if c.Pos() != 4 {
		t.Errorf("Pos = %d, want 4", c.Pos())
	}
	if c.Log() != l {
		t.Error("Cursor.Log does not return the source log")
	}
}

func TestCursorZeroCounterCallIsCommitted(t *testing.T) {
	// A call entry with counter value 0 stores an all-zero first word; the
	// commit marker is the thread-ID word, so the cursor must still
	// surface it (the old torn-record heuristic could not).
	l, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Entry{Kind: KindCall, Counter: 0, Addr: 0x42, ThreadID: 7}); err != nil {
		t.Fatal(err)
	}
	got := l.Cursor().Next(nil)
	if len(got) != 1 || got[0].Counter != 0 || got[0].Addr != 0x42 || got[0].ThreadID != 7 {
		t.Fatalf("zero-counter call not observed: %+v", got)
	}
}

// TestCursorConcurrentTailing runs writer goroutines appending entries
// while a reader repeatedly snapshots through the cursor, asserting that
// every committed entry is eventually observed exactly once, in per-thread
// order, and that no torn or in-flight entry is ever returned. Run under
// -race in CI.
func TestCursorConcurrentTailing(t *testing.T) {
	const (
		writers    = 4
		perWriter  = 5000
		capacity   = writers*perWriter - 1500 // force the overflow path too
		addrStride = 1_000_000
	)
	l, err := New(capacity)
	if err != nil {
		t.Fatal(err)
	}

	// Each writer's entry encodes (thread, sequence) redundantly in the
	// address word so the reader can detect torn records.
	var committed atomic.Uint64
	var wg sync.WaitGroup
	for w := 1; w <= writers; w++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			for seq := 0; seq < perWriter; seq++ {
				e := Entry{
					Kind:     KindCall,
					Counter:  uint64(seq),
					Addr:     tid*addrStride + uint64(seq),
					ThreadID: tid,
				}
				if seq%2 == 1 {
					e.Kind = KindReturn
				}
				if err := l.Append(e); err == nil {
					committed.Add(1)
				}
			}
		}(uint64(w))
	}
	writersDone := make(chan struct{})
	go func() { wg.Wait(); close(writersDone) }()

	cursor := l.Cursor()
	var observed []Entry
	done := false
	for !done {
		select {
		case <-writersDone:
			done = true
		default:
		}
		observed = cursor.Next(observed)
	}
	// Final drain: every reserved slot below capacity is committed once
	// the writers have exited.
	observed = cursor.Next(observed)

	if got, want := uint64(len(observed)), committed.Load(); got != want {
		t.Fatalf("observed %d entries, committed %d", got, want)
	}
	if cursor.Pos() != l.Len() {
		t.Fatalf("cursor stopped at %d of %d committed entries", cursor.Pos(), l.Len())
	}

	lastSeq := make(map[uint64]int64)
	for w := 1; w <= writers; w++ {
		lastSeq[uint64(w)] = -1
	}
	seen := make(map[uint64]bool, len(observed))
	for i, e := range observed {
		if e.ThreadID < 1 || e.ThreadID > writers {
			t.Fatalf("entry %d: torn or in-flight record surfaced: %+v", i, e)
		}
		seq := e.Addr - e.ThreadID*addrStride
		if seq != e.Counter {
			t.Fatalf("entry %d: torn record (addr %d vs counter %d)", i, e.Addr, e.Counter)
		}
		wantKind := KindCall
		if seq%2 == 1 {
			wantKind = KindReturn
		}
		if e.Kind != wantKind {
			t.Fatalf("entry %d: torn kind bit: %+v", i, e)
		}
		if seen[e.Addr] {
			t.Fatalf("entry %d observed twice: %+v", i, e)
		}
		seen[e.Addr] = true
		// A thread's own entries appear in its program order (the
		// property the analyzer relies on).
		if int64(seq) <= lastSeq[e.ThreadID] {
			t.Fatalf("thread %d out of order: seq %d after %d", e.ThreadID, seq, lastSeq[e.ThreadID])
		}
		lastSeq[e.ThreadID] = int64(seq)
	}
}

// TestCursorFastPathMeetsHole has one Next call walk a committed prefix
// holding a tombstone, reach a slot still in flight, and find committed
// slots beyond it of a thread that also committed in the prefix, so the
// one-pass frontier walk hands over to the fixpoint mid-segment. Once the
// hole commits, it must come out before every entry committed after it,
// and each thread's entries in order.
func TestCursorFastPathMeetsHole(t *testing.T) {
	l, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	start, n := l.ReserveShard(0, 6)
	if n != 6 {
		t.Fatalf("reserved %d slots, want 6", n)
	}
	// Thread 1 owns slots 0, 3 and 6, thread 2 slots 2, 4, 5 and 7; slot 1
	// is released. The counter is the slot, so slot order is easy to see.
	commit := func(slot, tid uint64) {
		l.Commit(slot, Entry{Kind: KindCall, Counter: slot, Addr: 0x100 * tid, ThreadID: tid})
	}
	commit(start+0, 1)
	l.Release(start + 1)
	commit(start+2, 2)
	commit(start+4, 2) // slot 3 stays in flight
	commit(start+5, 2)

	c := l.Cursor()
	got := c.Next(nil)
	if want := []uint64{0, 2, 4, 5}; !sameCounters(got, want) {
		t.Fatalf("first drain = %v, want counters %v", got, want)
	}
	if c.Pending() != 1 || c.Pos() != 6 {
		t.Fatalf("after the first drain: %d pending at pos %d, want 1 at 6", c.Pending(), c.Pos())
	}

	commit(start+3, 1) // the hole commits, then both threads move on
	more, n := l.ReserveShard(0, 2)
	if n != 2 || more != start+6 {
		t.Fatalf("second reservation = %d slots at %d, want 2 at %d", n, more, start+6)
	}
	commit(more, 1)
	commit(more+1, 2)
	got = c.Next(got)
	if want := []uint64{0, 2, 4, 5, 3, 6, 7}; !sameCounters(got, want) {
		t.Fatalf("both drains = %v, want counters %v", got, want)
	}
	if c.Pending() != 0 || c.Pos() != 8 {
		t.Fatalf("after the second drain: %d pending at pos %d, want 0 at 8", c.Pending(), c.Pos())
	}
	last := map[uint64]int64{1: -1, 2: -1}
	for _, e := range got {
		if int64(e.Counter) <= last[e.ThreadID] {
			t.Fatalf("thread %d out of order: slot %d after %d", e.ThreadID, e.Counter, last[e.ThreadID])
		}
		last[e.ThreadID] = int64(e.Counter)
	}
	if got := c.Next(nil); len(got) != 0 {
		t.Fatalf("third drain re-returned %v", got)
	}
}

func sameCounters(es []Entry, want []uint64) bool {
	if len(es) != len(want) {
		return false
	}
	for i, e := range es {
		if e.Counter != want[i] {
			return false
		}
	}
	return true
}

// BenchmarkCursorNext measures the live drain's read half: per iteration
// a burst of 32 Ki call/return entries commits with the timer stopped and
// a warm cursor drains it into a reused buffer. Divide ns/op by
// entries/op for the cost per entry.
func BenchmarkCursorNext(b *testing.B) {
	const burst = 1 << 15
	const bursts = 16 // per log; then the log resets under a fresh cursor
	l, err := New(bursts * burst)
	if err != nil {
		b.Fatal(err)
	}
	commit := func() {
		for i := 0; i < burst; i++ {
			e := Entry{Kind: KindCall, Counter: uint64(i), Addr: 0x1000, ThreadID: 1}
			if i%2 == 1 {
				e.Kind = KindReturn
			}
			if err := l.Append(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	buf := make([]Entry, 0, burst)
	var c *Cursor
	// fill commits the next burst, first starting the log over under a
	// fresh cursor, warmed by one drain, once it is full.
	fill := func() {
		if c == nil || l.Len() == l.Capacity() {
			l.Reset()
			c = l.Cursor()
			commit()
			buf = c.Next(buf[:0])
		}
		commit()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		if buf = c.Next(buf[:0]); len(buf) != burst {
			b.Fatalf("drained %d entries, want %d", len(buf), burst)
		}
	}
	b.ReportMetric(burst, "entries/op")
}
