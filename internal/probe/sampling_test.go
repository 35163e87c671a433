package probe

// Tests for the adaptive probe plane: call-pair sampling, live deny masks
// (thread and address) and the masked-event accounting.

import (
	"testing"

	"teeperf/internal/counter"
	"teeperf/internal/shmlog"
)

// assertBalanced scans the log's committed entries maintaining a per-thread
// stack: every return must close the frame on top. Sampling decides per
// call pair, so any recorded subset of a properly nested stream must itself
// be properly nested.
func assertBalanced(t *testing.T, log *shmlog.Log) {
	t.Helper()
	stacks := make(map[uint64][]uint64)
	for i, e := range log.Entries() {
		st := stacks[e.ThreadID]
		switch e.Kind {
		case shmlog.KindCall:
			stacks[e.ThreadID] = append(st, e.Addr)
		case shmlog.KindReturn:
			if len(st) == 0 {
				t.Fatalf("entry %d: return %#x with empty stack", i, e.Addr)
			}
			if top := st[len(st)-1]; top != e.Addr {
				t.Fatalf("entry %d: return %#x, open frame %#x", i, e.Addr, top)
			}
			stacks[e.ThreadID] = st[:len(st)-1]
		}
	}
	for tid, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("thread %d: %d frames left open", tid, len(st))
		}
	}
}

func TestSamplingRecordsEveryNthPair(t *testing.T) {
	log, err := shmlog.New(256, shmlog.WithSamplePeriod(4))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(log, counter.NewVirtual(1))
	if err != nil {
		t.Fatal(err)
	}
	th := rt.Thread()
	const pairs = 32
	for i := 0; i < pairs; i++ {
		th.Enter(0x100)
		th.Exit(0x100)
	}
	rt.Flush()

	if got := log.Len(); got != 2*pairs/4 {
		t.Fatalf("recorded %d entries, want %d (1-in-4 of %d pairs)", got, 2*pairs/4, pairs)
	}
	assertBalanced(t, log)
	wantMasked := uint64(2*pairs - 2*pairs/4)
	if got := rt.Masked(); got != wantMasked {
		t.Errorf("runtime masked = %d, want %d", got, wantMasked)
	}
	if got := log.Masked(); got != wantMasked {
		t.Errorf("shared masked word = %d, want %d", got, wantMasked)
	}
}

// TestSamplingNestedStacksStayBalanced drives deeply nested calls through
// several periods and a mid-stack period change: the per-frame decision bit
// must keep every recorded stack properly nested regardless.
func TestSamplingNestedStacksStayBalanced(t *testing.T) {
	for _, period := range []uint64{2, 3, 7} {
		log, err := shmlog.New(1<<12, shmlog.WithSamplePeriod(period))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(log, counter.NewVirtual(1))
		if err != nil {
			t.Fatal(err)
		}
		th := rt.Thread()
		for i := 0; i < 40; i++ {
			depth := 1 + i%9
			for d := 0; d < depth; d++ {
				th.Enter(uint64(0x100 + d*16))
			}
			if i == 20 {
				// A controller moves the period while frames are open; the
				// already-taken decisions must still be honored on the way
				// back down.
				log.SetSamplePeriod(period * 2)
			}
			for d := depth - 1; d >= 0; d-- {
				th.Exit(uint64(0x100 + d*16))
			}
		}
		rt.Flush()
		if log.Len() == 0 {
			t.Fatalf("period %d: nothing recorded", period)
		}
		assertBalanced(t, log)
	}
}

// TestLiveThreadMaskStopsAndResumes pushes an all-ones thread deny mask
// while a thread is recording (the generation bump makes it visible without
// any restart), then clears it.
func TestLiveThreadMaskStopsAndResumes(t *testing.T) {
	rt := newRuntime(t, 256)
	th := rt.Thread()
	th.Enter(0x1)
	th.Exit(0x1)
	if got := rt.Log().Len(); got != 2 {
		t.Fatalf("before mask: %d entries, want 2", got)
	}

	rt.Log().SetThreadMask(^uint64(0))
	th.Enter(0x1)
	th.Exit(0x1)
	if got := rt.Log().Len(); got != 2 {
		t.Fatalf("all-ones mask still recorded: %d entries, want 2", got)
	}

	rt.Log().SetThreadMask(0)
	th.Enter(0x1)
	th.Exit(0x1)
	if got := rt.Log().Len(); got != 4 {
		t.Fatalf("after clearing mask: %d entries, want 4", got)
	}
	assertBalanced(t, rt.Log())
}

// TestThreadMaskSelectsByBit: the mask denies by (id-1)%64, so with bit 0
// set only the first thread is silenced.
func TestThreadMaskSelectsByBit(t *testing.T) {
	rt := newRuntime(t, 256)
	t1 := rt.Thread() // id 1 -> bit 0
	t2 := rt.Thread() // id 2 -> bit 1
	rt.Log().SetThreadMask(1 << 0)
	t1.Enter(0x1)
	t1.Exit(0x1)
	t2.Enter(0x2)
	t2.Exit(0x2)
	entries := rt.Log().Entries()
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2 (only thread 2)", len(entries))
	}
	for _, e := range entries {
		if e.ThreadID != t2.ID() {
			t.Fatalf("masked thread %d still recorded: %+v", t1.ID(), e)
		}
	}
}

func TestAddrMaskDeniesRange(t *testing.T) {
	rt := newRuntime(t, 256)
	th := rt.Thread()
	rt.Log().SetAddrMask(0x200, 0x300)
	th.Enter(0x100) // below the range: recorded
	th.Enter(0x240) // inside: suppressed
	th.Exit(0x240)
	th.Exit(0x100)
	th.Enter(0x300) // hi is exclusive: recorded
	th.Exit(0x300)
	entries := rt.Log().Entries()
	if len(entries) != 4 {
		t.Fatalf("%d entries, want 4", len(entries))
	}
	for _, e := range entries {
		if e.Addr >= 0x200 && e.Addr < 0x300 {
			t.Fatalf("denied address recorded: %+v", e)
		}
	}
	assertBalanced(t, rt.Log())
}

// TestPeriodOneIdenticalEntries: an explicit period of 1 must leave the
// entry stream byte-identical to a default recording — the sampling plane
// has no effect until a control actually deviates from the defaults.
func TestPeriodOneIdenticalEntries(t *testing.T) {
	drive := func(log *shmlog.Log) {
		rt, err := New(log, counter.NewVirtual(1))
		if err != nil {
			t.Fatal(err)
		}
		th := rt.Thread()
		for i := 0; i < 20; i++ {
			th.Enter(0x100)
			th.Enter(0x200)
			th.Exit(0x200)
			th.Exit(0x100)
		}
		rt.Flush()
	}
	plain, err := shmlog.New(256)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := shmlog.New(256, shmlog.WithSamplePeriod(1))
	if err != nil {
		t.Fatal(err)
	}
	drive(plain)
	drive(sampled)
	a, b := plain.Entries(), sampled.Entries()
	if len(a) != len(b) {
		t.Fatalf("entry counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
