package shmlog

import (
	"bytes"
	"errors"
	"sync"
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
