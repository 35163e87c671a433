package probe

import (
	"strings"
	"sync"
	"testing"

	"teeperf/internal/counter"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

func newRuntime(t *testing.T, capacity int, opts ...Option) *Runtime {
	t.Helper()
	log, err := shmlog.New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(log, counter.NewVirtual(1), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestNewValidation(t *testing.T) {
	log, err := shmlog.New(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, counter.NewVirtual(1)); err == nil {
		t.Error("nil log should fail")
	}
	if _, err := New(log, nil); err == nil {
		t.Error("nil source should fail")
	}
}

func TestEnterExitRecordsEntries(t *testing.T) {
	rt := newRuntime(t, 16)
	th := rt.Thread()
	th.Enter(0x100)
	th.Exit(0x100)

	entries := rt.Log().Entries()
	if len(entries) != 2 {
		t.Fatalf("recorded %d entries, want 2", len(entries))
	}
	if entries[0].Kind != shmlog.KindCall || entries[0].Addr != 0x100 || entries[0].ThreadID != th.ID() {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[1].Kind != shmlog.KindReturn {
		t.Errorf("entry 1 kind = %v, want return", entries[1].Kind)
	}
	if entries[1].Counter <= entries[0].Counter {
		t.Errorf("counters not increasing: %d then %d", entries[0].Counter, entries[1].Counter)
	}
}

func TestSpan(t *testing.T) {
	rt := newRuntime(t, 16)
	th := rt.Thread()
	func() {
		defer th.Span(0x200)()
		th.Enter(0x300)
		th.Exit(0x300)
	}()
	entries := rt.Log().Entries()
	want := []struct {
		kind shmlog.Kind
		addr uint64
	}{
		{shmlog.KindCall, 0x200},
		{shmlog.KindCall, 0x300},
		{shmlog.KindReturn, 0x300},
		{shmlog.KindReturn, 0x200},
	}
	if len(entries) != len(want) {
		t.Fatalf("recorded %d entries, want %d", len(entries), len(want))
	}
	for i, w := range want {
		if entries[i].Kind != w.kind || entries[i].Addr != w.addr {
			t.Errorf("entry %d = %v@%#x, want %v@%#x",
				i, entries[i].Kind, entries[i].Addr, w.kind, w.addr)
		}
	}
}

func TestThreadIDsAndMultithreadFlag(t *testing.T) {
	rt := newRuntime(t, 16)
	t1 := rt.Thread()
	if rt.Log().Flags()&shmlog.FlagMultithread != 0 {
		t.Error("multithread flag set with a single thread")
	}
	t2 := rt.Thread()
	if t1.ID() == t2.ID() {
		t.Error("thread IDs collide")
	}
	if rt.Log().Flags()&shmlog.FlagMultithread == 0 {
		t.Error("multithread flag not set after second thread")
	}
}

func TestReentrancyGuard(t *testing.T) {
	rt := newRuntime(t, 16)
	th := rt.Thread()
	// Simulate the probe being re-entered from within itself, as would
	// happen if the injected code were itself instrumented.
	// An unbatched thread guards with its owner-only flag.
	th.inProbe = true
	th.Enter(0x1)
	th.Exit(0x1)
	if got := rt.Log().Len(); got != 0 {
		t.Errorf("re-entrant probe recorded %d entries, want 0", got)
	}
	th.inProbe = false
	th.Enter(0x1)
	if got := rt.Log().Len(); got != 1 {
		t.Errorf("after guard release recorded %d entries, want 1", got)
	}

	// A batched thread guards with the busy flag its flushes also take.
	rt = newRuntime(t, 16, WithBatch(4))
	th = rt.Thread()
	th.busy.Store(true)
	th.Enter(0x1)
	th.Exit(0x1)
	th.busy.Store(false)
	rt.Flush()
	if got := len(rt.Log().Entries()); got != 0 {
		t.Errorf("re-entrant batched probe recorded %d entries, want 0", got)
	}
}

func TestInactiveLogDropsSilently(t *testing.T) {
	rt := newRuntime(t, 16)
	th := rt.Thread()
	rt.Log().SetActive(false)
	th.Enter(0x1)
	th.Exit(0x1)
	if got := rt.Log().Len(); got != 0 {
		t.Errorf("inactive log has %d entries, want 0", got)
	}
	if got := rt.Dropped(); got != 0 {
		t.Errorf("inactive drops counted as overflow: %d", got)
	}
	rt.Log().SetActive(true)
	th.Enter(0x1)
	if got := rt.Log().Len(); got != 1 {
		t.Errorf("after reactivation: %d entries, want 1", got)
	}
}

func TestOverflowCountsDrops(t *testing.T) {
	rt := newRuntime(t, 2)
	th := rt.Thread()
	for i := 0; i < 5; i++ {
		th.Enter(uint64(i))
	}
	if got := rt.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3", got)
	}
}

func TestFilterByName(t *testing.T) {
	tab := symtab.New()
	hot := tab.MustRegister("hot_path", 16, "a.go", 1)
	cold := tab.MustRegister("cold_path", 16, "a.go", 9)

	f, err := NewFilter(tab, func(s symtab.Symbol) bool {
		return strings.HasPrefix(s.Name, "hot")
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 1 {
		t.Fatalf("filter selected %d funcs, want 1", f.Size())
	}
	if !f.Allow(hot) || f.Allow(cold) {
		t.Errorf("Allow(hot)=%v Allow(cold)=%v", f.Allow(hot), f.Allow(cold))
	}
	if f.Allow(tab.AnchorAddr()) {
		t.Error("anchor must never be instrumented")
	}

	rt := newRuntime(t, 16, WithFilter(f))
	th := rt.Thread()
	th.Enter(hot)
	th.Enter(cold)
	th.Exit(cold)
	th.Exit(hot)
	entries := rt.Log().Entries()
	if len(entries) != 2 {
		t.Fatalf("recorded %d entries, want 2 (hot only)", len(entries))
	}
	for _, e := range entries {
		if e.Addr != hot {
			t.Errorf("recorded addr %#x, want only hot %#x", e.Addr, hot)
		}
	}
}

func TestFilterValidation(t *testing.T) {
	tab := symtab.New()
	if _, err := NewFilter(nil, func(symtab.Symbol) bool { return true }); err == nil {
		t.Error("nil table should fail")
	}
	if _, err := NewFilter(tab, nil); err == nil {
		t.Error("nil predicate should fail")
	}
}

func TestFilterAddrs(t *testing.T) {
	f := NewFilterAddrs([]uint64{1, 2, 3})
	if f.Size() != 3 {
		t.Errorf("Size = %d, want 3", f.Size())
	}
	if !f.Allow(2) || f.Allow(4) {
		t.Error("address set membership wrong")
	}
	if got := f.String(); got != "filter(3 funcs)" {
		t.Errorf("String() = %q", got)
	}
}

func TestNopHooks(t *testing.T) {
	var h Hooks = Nop{}
	h.Enter(1)
	h.Exit(1)
}

func TestConcurrentThreads(t *testing.T) {
	const threads, events = 8, 500
	rt := newRuntime(t, threads*events*2)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		th := rt.Thread()
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for j := 0; j < events; j++ {
				th.Enter(uint64(j))
				th.Exit(uint64(j))
			}
		}(th)
	}
	wg.Wait()
	if got := rt.Log().Len(); got != threads*events*2 {
		t.Errorf("log has %d entries, want %d", got, threads*events*2)
	}
	if got := rt.Dropped(); got != 0 {
		t.Errorf("Dropped() = %d, want 0", got)
	}
}
