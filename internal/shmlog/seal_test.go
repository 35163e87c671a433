package shmlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSealFreezesReservedLength: after Seal no reservation gets a slot, the
// reserved prefix (committed and in-flight slots alike) stays visible to
// Len, SegmentStats and WriteTo, and Reset unseals.
func TestSealFreezesReservedLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"atomic", nil},
		{"mutex", []Option{WithSync(SyncMutex)}},
		{"sharded", []Option{WithShards(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := New(16, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			committed := []Entry{
				{Kind: KindCall, Counter: 1, Addr: 0x10, ThreadID: 1},
				{Kind: KindCall, Counter: 2, Addr: 0x20, ThreadID: 2},
				{Kind: KindReturn, Counter: 3, Addr: 0x10, ThreadID: 1},
			}
			for _, e := range committed {
				if err := l.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			// One slot reserved before the seal and never committed: it
			// must stay in the sealed prefix as an in-flight hole.
			if _, n := l.ReserveShard(0, 1); n != 1 {
				t.Fatalf("pre-seal reserve got %d slots, want 1", n)
			}
			const sealed = 4

			l.Seal()
			l.Seal() // idempotent
			for s := 0; s < l.Shards(); s++ {
				if _, n := l.ReserveShard(s, 3); n != 0 {
					t.Errorf("segment %d: reserve after Seal got %d slots, want 0", s, n)
				}
			}
			if err := l.Append(Entry{Kind: KindCall, Counter: 9, Addr: 0x30, ThreadID: 1}); !errors.Is(err, ErrFull) {
				t.Errorf("Append after Seal = %v, want ErrFull", err)
			}
			if got := l.Dropped(); got != 1 {
				t.Errorf("Dropped = %d, want 1", got)
			}
			if got := l.Len(); got != sealed {
				t.Errorf("Len after Seal = %d, want %d", got, sealed)
			}
			if got := l.Tail(); got != sealed {
				t.Errorf("Tail after Seal = %d, want %d", got, sealed)
			}
			var tails uint64
			for _, st := range l.SegmentStats() {
				if st.Tail > st.Capacity {
					t.Errorf("sealed segment tail %d above capacity %d", st.Tail, st.Capacity)
				}
				tails += st.Tail
			}
			if tails != sealed {
				t.Errorf("segment tails sum to %d, want %d", tails, sealed)
			}

			var buf bytes.Buffer
			if _, err := l.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			d, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Len(); got != sealed {
				t.Fatalf("persisted %d slots, want %d", got, sealed)
			}
			var got []Entry
			for _, e := range d.Entries() {
				if e.ThreadID != 0 {
					got = append(got, e)
				}
			}
			if len(got) != len(committed) {
				t.Fatalf("persisted committed entries = %+v, want %+v", got, committed)
			}
			for i, e := range got {
				if e != committed[i] {
					t.Errorf("persisted entry %d = %+v, want %+v", i, e, committed[i])
				}
			}

			l.Reset()
			if got := l.Len(); got != 0 {
				t.Errorf("Len after Reset = %d, want 0", got)
			}
			if _, n := l.ReserveShard(0, 1); n != 1 {
				t.Errorf("reserve after Reset got %d slots, want 1", n)
			}
		})
	}
}

// TestLiveReadsNeverTear: readers racing a committing writer must see each
// slot either still in flight or exactly as committed, never the commit
// marker over the slot's old counter and address words. Entry is read at
// the frontier of a writer reserving one slot at a time. WriteTo persists
// the live log of a writer that reserved the whole log up front, so each
// encoding sweep overtakes the committing writer somewhere in the log, and
// Read decodes it.
func TestLiveReadsNeverTear(t *testing.T) {
	const slots = 1 << 12
	addrOf := func(slot int) uint64 { return 0x1000 + uint64(slot)*16 }
	check := func(t *testing.T, e Entry, slot int) bool {
		t.Helper()
		if e.ThreadID == 0 {
			return true // in flight
		}
		if e.Counter != uint64(slot)+1 || e.Addr != addrOf(slot) {
			t.Errorf("slot %d torn: tid %d with counter %d addr %#x, committed counter %d addr %#x",
				slot, e.ThreadID, e.Counter, e.Addr, slot+1, addrOf(slot))
			return false
		}
		return true
	}
	// live runs rounds of one writer filling a fresh log, batch slots per
	// reservation, while read polls it, until the time budget is spent or
	// read reports a torn slot.
	live := func(t *testing.T, batch int, read func(l *Log) bool) {
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
			l, err := New(slots)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for {
					start, n := l.Reserve(batch)
					if n == 0 {
						return
					}
					for slot := start; slot < start+uint64(n); slot++ {
						l.Commit(slot, Entry{Kind: KindCall, Counter: slot + 1, Addr: addrOf(int(slot)), ThreadID: 1})
					}
				}
			}()
			intact := true
			for polling := true; polling && intact; {
				select {
				case <-done:
					polling = false
				default:
					intact = read(l)
				}
			}
			wg.Wait()
			if !intact {
				return
			}
		}
	}

	t.Run("entry", func(t *testing.T) {
		live(t, 1, func(l *Log) bool {
			i := l.Len() - 1
			if i < 0 {
				return true
			}
			e, err := l.Entry(i)
			if err != nil {
				t.Fatal(err)
			}
			return check(t, e, i)
		})
	})
	t.Run("writeto", func(t *testing.T) {
		var buf bytes.Buffer
		live(t, slots, func(l *Log) bool {
			buf.Reset()
			if _, err := l.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			d, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < d.Len(); i++ {
				e, err := d.Entry(i)
				if err != nil {
					t.Fatal(err)
				}
				if !check(t, e, i) {
					return false
				}
			}
			return true
		})
	})
}

// TestConcurrentReadersSeeCommittedOrZeroWords: Commit publishes the
// plainly stored counter and address words with the marker store, so every
// reader must take them only behind a real thread ID. One writer commits
// and releases slots in batches while WriteTo, Entry and a Cursor read the
// live log, and a rotation reserves a straggler slot, seals the log and
// persists it before and after the straggler commits. Every committed slot
// must read back exact; every in-flight slot must persist as three zero
// words and every released slot as zero words under TombstoneTID.
func TestConcurrentReadersSeeCommittedOrZeroWords(t *testing.T) {
	const (
		slots = 1 << 12
		batch = 8
	)
	// wantSlot is what slot i holds once its owner is done with it.
	wantSlot := func(i uint64) (w0, w1, tid uint64) {
		if i%7 == 6 {
			return 0, 0, TombstoneTID
		}
		w0 = i + 1
		if i%2 == 1 {
			w0 |= kindBit
		}
		return w0, 0x1000 + i*16, 1 + i%3
	}
	finish := func(l *Log, slot uint64) {
		w0, w1, tid := wantSlot(slot)
		if tid == TombstoneTID {
			l.Release(slot)
			return
		}
		l.Commit(slot, decodeWords(w0, w1, tid))
	}
	// checkWords reports a slot that is neither in flight (all zero) nor
	// exactly what its owner stored.
	checkWords := func(slot, w0, w1, tid uint64) error {
		if tid == 0 && w0 == 0 && w1 == 0 {
			return nil
		}
		if ww0, ww1, wtid := wantSlot(slot); w0 != ww0 || w1 != ww1 || tid != wtid {
			return fmt.Errorf("slot %d = (%#x, %#x, %#x), want (%#x, %#x, %#x) or zero words",
				slot, w0, w1, tid, ww0, ww1, wtid)
		}
		return nil
	}
	// checkPersisted checks every slot of a single-segment encoding.
	checkPersisted := func(b []byte) error {
		body := b[HeaderSize+SegHeaderSize:]
		for i := 0; i < len(body)/EntrySize; i++ {
			w := body[i*EntrySize:]
			if err := checkWords(uint64(i), binary.LittleEndian.Uint64(w),
				binary.LittleEndian.Uint64(w[8:]), binary.LittleEndian.Uint64(w[16:])); err != nil {
				return err
			}
		}
		return nil
	}
	wordsOf := func(e Entry) (w0, w1, tid uint64) {
		w0 = e.Counter
		if e.Kind == KindReturn {
			w0 |= kindBit
		}
		return w0, e.Addr, e.ThreadID
	}

	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		l, err := New(slots)
		if err != nil {
			t.Fatal(err)
		}
		var failed atomic.Bool
		fail := func(format string, args ...any) {
			failed.Store(true)
			t.Errorf(format, args...)
		}
		done := make(chan struct{})
		var writer, readers sync.WaitGroup
		writer.Add(1)
		go func() {
			defer writer.Done()
			for {
				start, n := l.Reserve(batch)
				if n == 0 {
					return
				}
				for slot := start; slot < start+uint64(n); slot++ {
					finish(l, slot)
				}
			}
		}()

		readers.Add(3)
		go func() { // WriteTo
			defer readers.Done()
			var buf bytes.Buffer
			for !failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				buf.Reset()
				if _, err := l.WriteTo(&buf); err != nil {
					fail("WriteTo: %v", err)
					return
				}
				if err := checkPersisted(buf.Bytes()); err != nil {
					fail("live WriteTo: %v", err)
				}
			}
		}()
		go func() { // Entry at the frontier
			defer readers.Done()
			for !failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				for i := max(l.Len()-batch, 0); i < l.Len(); i++ {
					e, err := l.Entry(i)
					if err != nil {
						fail("Entry(%d): %v", i, err)
						return
					}
					w0, w1, tid := wordsOf(e)
					if err := checkWords(uint64(i), w0, w1, tid); err != nil {
						fail("Entry: %v", err)
					}
				}
			}
		}()
		emitted := 0
		cur := l.Cursor()
		drain := func() {
			for _, e := range cur.Next(nil) {
				emitted++
				slot := e.Counter - 1
				w0, w1, tid := wordsOf(e)
				if ww0, ww1, wtid := wantSlot(slot); tid == TombstoneTID || w0 != ww0 || w1 != ww1 || tid != wtid {
					fail("cursor emitted slot %d = (%#x, %#x, %#x), want (%#x, %#x, %#x)",
						slot, w0, w1, tid, ww0, ww1, wtid)
				}
			}
		}
		go func() { // Cursor
			defer readers.Done()
			for !failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				drain()
			}
		}()

		// Rotation: once the writer is under way, reserve a straggler slot,
		// seal, and persist around the straggler's commit.
		for l.Len() < slots/2 {
			runtime.Gosched()
		}
		straggler, n := l.Reserve(1)
		l.Seal()
		var seg bytes.Buffer
		if _, err := l.WriteTo(&seg); err != nil {
			t.Fatal(err)
		}
		if err := checkPersisted(seg.Bytes()); err != nil {
			fail("sealed segment: %v", err)
		}
		if n == 1 {
			w := seg.Bytes()[HeaderSize+SegHeaderSize+int(straggler)*EntrySize:]
			if !bytes.Equal(w[:EntrySize], make([]byte, EntrySize)) {
				fail("straggler slot %d persisted before its commit as %x, want zero words", straggler, w[:EntrySize])
			}
			finish(l, straggler)
		}
		writer.Wait()
		close(done)
		readers.Wait()

		seg.Reset()
		if _, err := l.WriteTo(&seg); err != nil {
			t.Fatal(err)
		}
		body := seg.Bytes()[HeaderSize+SegHeaderSize:]
		if len(body) != l.Len()*EntrySize {
			t.Fatalf("sealed segment persisted %d bytes, want %d", len(body), l.Len()*EntrySize)
		}
		for i := 0; i < l.Len(); i++ {
			w := body[i*EntrySize:]
			got := [3]uint64{binary.LittleEndian.Uint64(w), binary.LittleEndian.Uint64(w[8:]), binary.LittleEndian.Uint64(w[16:])}
			if ww0, ww1, wtid := wantSlot(uint64(i)); got != [3]uint64{ww0, ww1, wtid} {
				fail("settled slot %d persisted as %#x, want (%#x, %#x, %#x)", i, got, ww0, ww1, wtid)
			}
		}
		drain()
		committed := 0
		for _, e := range l.Entries() {
			if e.ThreadID != TombstoneTID {
				committed++
			}
		}
		if emitted != committed || cur.Pending() != 0 {
			fail("cursor emitted %d entries with %d pending, want %d and 0", emitted, cur.Pending(), committed)
		}
		if failed.Load() {
			return
		}
	}
}
