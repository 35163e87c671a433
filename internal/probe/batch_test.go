package probe

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"teeperf/internal/counter"
	"teeperf/internal/shmlog"
)

func TestWithBatchValidation(t *testing.T) {
	log, err := shmlog.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(log, counter.NewVirtual(1), WithBatch(-1)); err == nil {
		t.Error("negative batch should fail")
	}
	rt, err := New(log, counter.NewVirtual(1), WithBatch(0))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Batch() != 1 {
		t.Errorf("Batch() = %d after WithBatch(0), want default 1", rt.Batch())
	}
	rt, err = New(log, counter.NewVirtual(1), WithBatch(16))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Batch() != 16 {
		t.Errorf("Batch() = %d, want 16", rt.Batch())
	}
}

// TestBatchedFlushTombstonesTrailingSlots: a batched thread reserves a
// whole block up front; Flush must release the unused remainder so readers
// dismiss it rather than wait on it forever.
func TestBatchedFlushTombstonesTrailingSlots(t *testing.T) {
	rt := newRuntime(t, 64, WithBatch(8))
	th := rt.Thread()
	th.Enter(0x10)
	th.Enter(0x20)
	th.Exit(0x20)

	log := rt.Log()
	if log.Len() != 8 {
		t.Fatalf("Len = %d, want the whole reserved block (8)", log.Len())
	}
	if got := log.Entries(); len(got) != 8 {
		// Before the flush the trailing slots are in-flight holes.
		t.Fatalf("pre-flush raw entries = %d, want 8 (3 committed + 5 holes)", len(got))
	}
	cursor := log.Cursor()
	if drained := cursor.Next(nil); len(drained) != 3 || cursor.Pending() != 5 {
		t.Fatalf("pre-flush drain = %d entries, %d pending; want 3 and 5", len(drained), cursor.Pending())
	}

	rt.Flush()
	if drained := cursor.Next(nil); len(drained) != 0 || cursor.Pending() != 0 {
		t.Fatalf("post-flush drain = %d entries, %d pending; want 0 and 0", len(drained), cursor.Pending())
	}
	if got := log.Entries(); len(got) != 3 {
		t.Fatalf("post-flush Entries = %d, want 3 (tombstones dismissed)", len(got))
	}
	// Flush is idempotent and the thread can keep recording afterwards
	// (reserving a fresh block, flushed again before counting).
	rt.Flush()
	th.Enter(0x30)
	rt.Flush()
	if got := log.Entries(); len(got) != 4 {
		t.Fatalf("Entries after post-flush event = %d, want 4", len(got))
	}
}

// TestBatchedRotationReleasesOldBlock: after a log swap the thread's next
// event must land in the new segment and lazily tombstone the block it
// still held in the old one.
func TestBatchedRotationReleasesOldBlock(t *testing.T) {
	rt := newRuntime(t, 64, WithBatch(4))
	th := rt.Thread()
	th.Enter(0x10)
	th.Enter(0x20)

	next, err := shmlog.New(64)
	if err != nil {
		t.Fatal(err)
	}
	old, err := rt.SwapLog(next)
	if err != nil {
		t.Fatal(err)
	}

	// The old segment still shows two in-flight holes…
	if c := old.Cursor(); len(c.Next(nil)) != 2 || c.Pending() != 2 {
		t.Fatalf("old segment before lazy flush: drained %d, pending %d; want 2 and 2", len(c.Next(nil)), c.Pending())
	}

	// …until the thread's next event observes the swap and releases them.
	th.Exit(0x20)
	if got := old.Entries(); len(got) != 2 {
		t.Fatalf("old segment after lazy flush: %d entries, want 2 (holes tombstoned)", len(got))
	}
	rt.Flush() // settle the new segment's block before counting
	got := next.Entries()
	if len(got) != 1 || got[0].Kind != shmlog.KindReturn || got[0].Addr != 0x20 {
		t.Fatalf("new segment = %+v, want the single return event", got)
	}
}

// TestBatchedDropAccounting: once the segment is full a batched thread
// drops like the unbatched path — counted on both the log and the runtime —
// without hammering the tail with further reservation attempts.
func TestBatchedDropAccounting(t *testing.T) {
	rt := newRuntime(t, 4, WithBatch(8))
	th := rt.Thread()
	for i := 0; i < 4; i++ {
		th.Enter(uint64(0x10 + i))
	}
	if rt.Dropped() != 0 {
		t.Fatalf("drops before overflow = %d", rt.Dropped())
	}
	tailBefore := rt.Log().Tail()
	th.Enter(0x99)
	th.Enter(0x9A)
	if rt.Dropped() != 2 {
		t.Fatalf("runtime drops = %d, want 2", rt.Dropped())
	}
	if rt.Log().Dropped() != 2 {
		t.Fatalf("log drops = %d, want 2", rt.Log().Dropped())
	}
	// The first failed reservation marks the block full; the second drop
	// must not touch the tail again — and the failed reservation itself is
	// parked back at the capacity, so overload never grows the shared tail
	// word past the log's end.
	if tail, cap := rt.Log().Tail(), uint64(rt.Log().Capacity()); tail != cap {
		t.Fatalf("tail = %d, want parked at capacity %d (was %d before overflow)", tail, cap, tailBefore)
	}
	if got := rt.Log().Entries(); len(got) != 4 {
		t.Fatalf("Entries = %d, want the 4 recorded before overflow", len(got))
	}
}

// TestBatchedMatchesUnbatched: with a deterministic counter, a batched run
// commits exactly the entry stream an unbatched run does (tombstones aside).
func TestBatchedMatchesUnbatched(t *testing.T) {
	record := func(opts ...Option) []shmlog.Entry {
		log, err := shmlog.New(256)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(log, counter.NewVirtual(1), opts...)
		if err != nil {
			t.Fatal(err)
		}
		th := rt.Thread()
		for i := 0; i < 20; i++ {
			th.Enter(uint64(0x100 + i))
			th.Exit(uint64(0x100 + i))
		}
		rt.Flush()
		return log.Entries()
	}
	plain := record()
	batched := record(WithBatch(7))
	if !reflect.DeepEqual(plain, batched) {
		t.Fatalf("batched stream diverges from unbatched:\n%+v\nvs\n%+v", batched, plain)
	}
}

// TestFlushConcurrentWithProbe: Runtime.Flush and FlushLog may overlap a
// straggling probe (the recorder's Stop and Rotate paths); the per-thread
// busy handshake must keep block state untorn. Run under -race this is the
// regression test for the Stop/Flush data race: every event is either
// committed intact or dropped, never half-written, and per-thread order
// survives the interleaved flushes. Unbatched probes take no handshake:
// flushes have no block to release there, so under -race the unbatched
// case pins that they touch no probe-owned state, and no event is lost.
func TestFlushConcurrentWithProbe(t *testing.T) {
	const events = 5000
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"batch8", []Option{WithBatch(8)}},
		{"unbatched", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, events+512, tc.opts...)
			th := rt.Thread()

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < events; i++ {
					th.Enter(uint64(0x100 + i%16))
				}
				close(done)
			}()
			for flushing := true; flushing; {
				rt.Flush()
				rt.FlushLog(rt.Log())
				// Yield between flush rounds: on a single-CPU box a
				// saturating flusher can hold the busy flag whenever the
				// probing goroutine is scheduled, starving every event into
				// the drop path and leaving nothing for the integrity
				// assertions below.
				runtime.Gosched()
				select {
				case <-done:
					flushing = false
				default:
				}
			}
			wg.Wait()
			rt.Flush()

			// An event that loses the handshake CAS to an overlapping flush
			// is skipped, so not every batched event lands; the invariant
			// is that whatever did land is intact (no torn thread ID) and
			// per-thread ordered (the virtual counter is strictly
			// increasing across recorded events).
			seen, last := 0, uint64(0)
			for _, e := range rt.Log().Entries() {
				if e.ThreadID != th.ID() {
					t.Fatalf("entry with torn thread ID %d", e.ThreadID)
				}
				if e.Counter <= last {
					t.Fatalf("per-thread order broken: counter %d after %d", e.Counter, last)
				}
				last = e.Counter
				seen++
			}
			if seen == 0 {
				t.Fatal("no events survived the concurrent flushes")
			}
			if tc.opts == nil && seen != events {
				t.Fatalf("%d of %d unbatched events recorded, want all", seen, events)
			}
		})
	}
}

// TestBatchedHonorsDynamicToggling: deactivating mid-block must stop
// recording immediately even though reserved slots remain.
func TestBatchedHonorsDynamicToggling(t *testing.T) {
	rt := newRuntime(t, 64, WithBatch(8))
	th := rt.Thread()
	th.Enter(0x10)
	rt.Log().SetActive(false)
	th.Enter(0x20) // inactive: not recorded, block untouched
	rt.Log().SetActive(true)
	th.Enter(0x30)
	rt.Flush()

	got := rt.Log().Entries()
	if len(got) != 2 || got[0].Addr != 0x10 || got[1].Addr != 0x30 {
		t.Fatalf("entries = %+v, want 0x10 and 0x30 only", got)
	}
}
