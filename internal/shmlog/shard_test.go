package shmlog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestReserveShardOverloadTailBounded is the overload-path regression test:
// before the tail was parked at capacity, every failed reservation grew the
// shared tail word without bound, so Tail() (and everything derived from it
// — fill gauges, recovery clamps) lost meaning under sustained overload.
// Hammer a full log from many goroutines and check the tail stays within
// the in-flight overshoot bound throughout, and settles exactly at the
// capacity once the writers quiesce.
func TestReserveShardOverloadTailBounded(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const (
				goroutines = 8
				batch      = 8
				attempts   = 2000
			)
			l, err := New(64, WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			// Fill every segment to the brim first.
			for s := 0; s < shards; s++ {
				for {
					slot, n := l.ReserveShard(s, 1)
					if n == 0 {
						break
					}
					l.Commit(slot, Entry{Kind: KindCall, Counter: 1, Addr: 2, ThreadID: uint64(s + 1)})
				}
			}
			capTotal := uint64(l.Capacity())
			if got := l.Tail(); got != capTotal {
				t.Fatalf("tail after fill = %d, want %d", got, capTotal)
			}

			// The documented transient bound: the sum of in-flight
			// reservation batches.
			bound := capTotal + uint64(goroutines*batch)
			var worst atomic.Uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					shard := g % shards
					for i := 0; i < attempts; i++ {
						if _, n := l.ReserveShard(shard, batch); n != 0 {
							t.Errorf("reservation succeeded on a full segment (%d slots)", n)
							return
						}
						l.NoteDroppedShard(shard, batch)
						if tail := l.Tail(); tail > bound {
							// Record, don't Fatal: worst case is asserted once below.
							worst.Store(tail)
						}
					}
				}(g)
			}
			wg.Wait()

			if w := worst.Load(); w != 0 {
				t.Fatalf("tail overshot the in-flight bound: saw %d, bound %d", w, bound)
			}
			if got := l.Tail(); got != capTotal {
				t.Fatalf("tail after quiesce = %d, want parked at capacity %d", got, capTotal)
			}
			for s, st := range l.SegmentStats() {
				if st.Tail != st.Capacity {
					t.Fatalf("segment %d tail = %d, want its capacity %d", s, st.Tail, st.Capacity)
				}
			}
			if got, want := l.Dropped(), uint64(goroutines*batch*attempts); got != want {
				t.Fatalf("dropped = %d, want %d", got, want)
			}
			if got := len(l.Entries()); got != int(capTotal) {
				t.Fatalf("Entries = %d, want the %d committed before overload", got, capTotal)
			}
		})
	}
}

// TestShardedPerThreadOrderProperty is the sharding conformance property:
// for every batch × shards combination, concurrent writers driving the
// batched reserve/commit protocol produce a log whose readers (Entries,
// the merging Cursor, and a persist/Read round trip) all observe each
// thread's entries complete and in write order — exactly what a single-tail
// log guarantees. Run under -race this also exercises the per-segment
// reserve path against racing readers.
func TestShardedPerThreadOrderProperty(t *testing.T) {
	for _, batch := range []int{1, 4, 16} {
		for _, shards := range []int{1, 4, 16} {
			batch, shards := batch, shards
			t.Run(fmt.Sprintf("batch=%d,shards=%d", batch, shards), func(t *testing.T) {
				runShardOrderProperty(t, batch, shards)
			})
		}
	}
}

func runShardOrderProperty(t *testing.T, batch, shards int) {
	const (
		threads         = 8
		eventsPerThread = 500
	)
	// Capacity is sized so every segment can hold all the threads that
	// hash onto it even in the worst (all-on-one-shard) skew.
	l, err := New(shards*threads*(eventsPerThread+batch), WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}

	// A concurrent merging cursor drains while writers append; its view is
	// checked against the same invariant afterwards.
	cur := l.Cursor()
	var drained []Entry
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			drained = cur.Next(drained)
			select {
			case <-stop:
				drained = cur.Next(drained)
				return
			default:
			}
		}
	}()

	// A shared monotone clock makes counters strictly increasing per
	// thread (and globally unique), like the profiler's counter thread.
	var clock atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(tid uint64) {
			defer wg.Done()
			shard := l.ShardOf(tid)
			written := 0
			for written < eventsPerThread {
				slot, n := l.ReserveShard(shard, batch)
				if n == 0 {
					t.Errorf("thread %d: log full after %d events", tid, written)
					return
				}
				for i := 0; i < n; i++ {
					if written == eventsPerThread {
						l.Release(slot + uint64(i)) // unused trailing slots
						continue
					}
					l.Commit(slot+uint64(i), Entry{
						Kind:     KindCall,
						Counter:  clock.Add(1),
						Addr:     0x1000 + tid,
						ThreadID: tid,
					})
					written++
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(stop)
	<-readerDone

	check := func(src string, entries []Entry) {
		t.Helper()
		perThread := make(map[uint64][]uint64)
		for _, e := range entries {
			if e.ThreadID == 0 || e.ThreadID == TombstoneTID {
				t.Fatalf("%s: reader surfaced an uncommitted slot: %+v", src, e)
			}
			perThread[e.ThreadID] = append(perThread[e.ThreadID], e.Counter)
		}
		if len(perThread) != threads {
			t.Fatalf("%s: %d threads observed, want %d", src, len(perThread), threads)
		}
		for tid, counters := range perThread {
			if len(counters) != eventsPerThread {
				t.Fatalf("%s: thread %d has %d entries, want %d", src, tid, len(counters), eventsPerThread)
			}
			for i := 1; i < len(counters); i++ {
				if counters[i] <= counters[i-1] {
					t.Fatalf("%s: thread %d order broken at %d: counter %d after %d",
						src, tid, i, counters[i], counters[i-1])
				}
			}
		}
	}

	check("cursor", drained)
	check("Entries", l.Entries())

	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("Read", decoded.Entries())
	// The persisted stream carries every reserved slot — committed entries
	// plus the released tails of partial batches, which readers dismiss.
	reserved := threads * ((eventsPerThread + batch - 1) / batch) * batch
	if decoded.Len() != reserved {
		t.Fatalf("decoded Len = %d, want %d reserved slots (batch %d)",
			decoded.Len(), reserved, batch)
	}
}

// TestShardedPersistMergesByCounter pins the read-time merge: a persisted
// multi-shard log decodes to a single stream globally ordered by counter,
// byte-identical to what the same events produce through a single-tail
// log — the invariant that keeps the analyzer output independent of the
// shard count.
func TestShardedPersistMergesByCounter(t *testing.T) {
	const threads, events = 6, 40
	write := func(shards int) *Log {
		// Sized so each segment can hold every event in the worst skew.
		l, err := New(shards*threads*events, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic round-robin schedule: thread t's k-th event has
		// global counter k*threads+t, so the fully merged stream is the
		// counter sequence 0,1,2,...
		for k := 0; k < events; k++ {
			for tid := 1; tid <= threads; tid++ {
				e := Entry{
					Kind:     KindCall,
					Counter:  uint64(k*threads + tid),
					Addr:     0x4000 + uint64(tid),
					ThreadID: uint64(tid),
				}
				if err := l.Append(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		return l
	}

	roundTrip := func(l *Log) []Entry {
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return decoded.Entries()
	}

	want := roundTrip(write(1))
	if !sort.SliceIsSorted(want, func(i, j int) bool { return want[i].Counter < want[j].Counter }) {
		t.Fatal("single-tail reference stream is not counter-ordered")
	}
	for _, shards := range []int{2, 3, 8} {
		got := roundTrip(write(shards))
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d entries, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: entry %d = %+v, want %+v (merge not counter-ordered)",
					shards, i, got[i], want[i])
			}
		}
	}
}

// TestShardedDecodeMatchesStableSort pins the read-time merge against its
// oracle: for batched multi-thread logs over 2-8 shards, with counter ties
// across threads, in-flight holes and tombstones carrying stale counters,
// Read yields exactly the slot order of a stable sort by counter of the
// persisted slots in segment walk order, and ReadLenient exactly that
// order's committed entries.
func TestShardedDecodeMatchesStableSort(t *testing.T) {
	for _, shards := range []int{2, 3, 5, 8} {
		for _, batch := range []int{2, 4, 16} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("shards=%d,batch=%d,seed=%d", shards, batch, seed), func(t *testing.T) {
					checkShardedDecodeOracle(t, shardedOracleLog(t, shards, batch, seed))
				})
			}
		}
	}
}

// shardedOracleLog drives a seeded interleaving of batched writers. The
// shared clock advances by 0-2 per event, so different threads commit
// equal counters; per thread, counters are nondecreasing. Some blocks are
// released early (tombstones), and every writer's last block is left with
// reserved slots that never commit (in-flight holes). Uncommitted slots
// get stale counter words, as a writer interrupted between its stores
// leaves them.
func shardedOracleLog(t *testing.T, shards, batch int, seed int64) *Log {
	t.Helper()
	const threads, events = 7, 120
	rng := rand.New(rand.NewSource(seed))
	// Every thread may hash onto one segment, and each early release
	// wastes up to a block.
	l, err := New(shards*threads*events*batch, WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	type writer struct {
		slot       uint64
		left, done int
	}
	ws := make([]writer, threads)
	stale := func(slot uint64) {
		atomic.StoreUint64(&l.words[l.slotWordIdx(slot)], uint64(rng.Intn(3*threads*events)))
	}
	clock := uint64(1)
	for busy := threads; busy > 0; {
		i := rng.Intn(threads)
		w := &ws[i]
		if w.done == events {
			continue
		}
		tid := uint64(i + 1)
		if w.left == 0 {
			slot, n := l.ReserveShard(l.ShardOf(tid), batch)
			if n == 0 {
				t.Fatalf("thread %d: segment full", tid)
			}
			w.slot, w.left = slot, n
		}
		clock += uint64(rng.Intn(3))
		kind := KindCall
		if rng.Intn(2) == 0 {
			kind = KindReturn
		}
		l.Commit(w.slot, Entry{Kind: kind, Counter: clock, Addr: 0x100 + uint64(rng.Intn(4)), ThreadID: tid})
		w.slot++
		w.left--
		w.done++
		if w.left > 0 && (w.done == events || rng.Intn(8) == 0) {
			// Release the rest of the block, except that a finished
			// writer's last block stays in flight half of the time.
			inFlight := w.done == events && rng.Intn(2) == 0
			for ; w.left > 0; w.left-- {
				stale(w.slot)
				if !inFlight {
					l.Release(w.slot)
				}
				w.slot++
			}
		}
		if w.done == events {
			busy--
		}
	}
	return l
}

func checkShardedDecodeOracle(t *testing.T, l *Log) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// The oracle: the persisted slots in segment walk order, stable-sorted
	// by counter.
	var slots []rawSlot
	off := HeaderSize
	for s := 0; s < l.Shards(); s++ {
		n := int(binary.LittleEndian.Uint64(data[off+segWordTail*8:]))
		off += SegHeaderSize
		for i := 0; i < n; i++ {
			slots = append(slots, rawSlot{
				w0: binary.LittleEndian.Uint64(data[off:]),
				w1: binary.LittleEndian.Uint64(data[off+8:]),
				w2: binary.LittleEndian.Uint64(data[off+16:]),
			})
			off += EntrySize
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].w0&counterMask < slots[j].w0&counterMask })
	var holes int
	var committed []Entry
	for _, s := range slots {
		if s.w2 == 0 || s.w2 == TombstoneTID {
			holes++
			continue
		}
		e := Entry{Kind: KindCall, Counter: s.w0 & counterMask, Addr: s.w1, ThreadID: s.w2}
		if s.w0&kindBit != 0 {
			e.Kind = KindReturn
		}
		committed = append(committed, e)
	}
	if holes == 0 {
		t.Fatal("fixture has no uncommitted slots")
	}

	strict, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if strict.Len() != len(slots) {
		t.Fatalf("Read: %d slots, want %d", strict.Len(), len(slots))
	}
	for i, s := range slots {
		base := HeaderWords + SegHeaderWords + i*EntryWords
		got := rawSlot{w0: strict.words[base], w1: strict.words[base+1], w2: strict.words[base+2]}
		if got != s {
			t.Fatalf("Read: slot %d = %+v, want %+v", i, got, s)
		}
	}

	lenient, _, err := ReadLenient(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := lenient.Entries()
	if len(got) != len(committed) {
		t.Fatalf("ReadLenient: %d entries, want %d", len(got), len(committed))
	}
	for i := range committed {
		if got[i] != committed[i] {
			t.Fatalf("ReadLenient: entry %d = %+v, want %+v", i, got[i], committed[i])
		}
	}
}
