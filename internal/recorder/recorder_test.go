package recorder

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"teeperf/internal/counter"
	"teeperf/internal/probe"
	"teeperf/internal/symtab"
)

func newTestRecorder(t *testing.T, opts ...Option) (*Recorder, *symtab.Table) {
	t.Helper()
	tab := symtab.New()
	tab.MustRegister("main", 16, "main.go", 1)
	tab.MustRegister("work", 16, "main.go", 10)
	opts = append([]Option{WithCounterMode(CounterVirtual), WithCapacity(1 << 10)}, opts...)
	r, err := New(tab, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r, tab
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil table should fail")
	}
	tab := symtab.New()
	if _, err := New(tab, WithCapacity(0)); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := New(tab, WithCounterMode(CounterMode(42))); err == nil {
		t.Error("bad counter mode should fail")
	}
}

func TestLifecycle(t *testing.T) {
	r, _ := newTestRecorder(t)
	if err := r.Stop(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Stop before Start: err = %v, want ErrNotStarted", err)
	}
	// The log is inactive before Start: probes drop events.
	th := r.Thread()
	th.Enter(r.AddrOf("main"))
	if got := r.Log().Len(); got != 0 {
		t.Fatalf("events recorded before Start: %d", got)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("double Start: err = %v, want ErrAlreadyStarted", err)
	}
	th.Enter(r.AddrOf("main"))
	th.Exit(r.AddrOf("main"))
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := r.Stop(); err != nil {
		t.Fatalf("Stop must be idempotent: %v", err)
	}
	st := r.Stats()
	if st.Entries != 2 {
		t.Errorf("Stats.Entries = %d, want 2", st.Entries)
	}
	if st.Duration <= 0 {
		t.Errorf("Stats.Duration = %v, want > 0", st.Duration)
	}
}

func TestDynamicEnableDisable(t *testing.T) {
	r, _ := newTestRecorder(t)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Stop(); err != nil {
			t.Error(err)
		}
	}()
	th := r.Thread()
	addr := r.AddrOf("work")

	th.Enter(addr)
	r.Disable()
	th.Enter(addr) // dropped
	th.Exit(addr)  // dropped
	r.Enable()
	th.Exit(addr)

	if got := r.Log().Len(); got != 2 {
		t.Errorf("log has %d entries, want 2 (enable/disable window)", got)
	}
}

func TestSoftwareCounterLifecycle(t *testing.T) {
	tab := symtab.New()
	r, err := New(tab, WithCapacity(1<<20)) // default software counter
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	th := r.Thread()
	// Record probe pairs while the software counter spins. On a
	// multi-core host the counter advances between probes; on a
	// single-core host scheduling decides, so yield periodically (the
	// real deployment sacrifices a whole core to the counter) and assert
	// only portably: the counter ran, and counter values never decrease.
	// A fixed number of pairs can finish before the counter goroutine is
	// first scheduled, so keep recording until the log shows the counter
	// moved twice (counted as the assertion below counts it), or a
	// deadline passes.
	scanned, last, moves := 0, uint64(0), 0
	advanced := func() bool {
		for n := r.Log().Len(); scanned < n; scanned++ {
			e, err := r.Log().Entry(scanned)
			if err != nil {
				t.Fatal(err)
			}
			if e.Counter != last {
				moves++
			}
			last = e.Counter
		}
		return moves >= 2
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		th.Enter(1)
		th.Exit(1)
		if i%1024 == 0 {
			runtime.Gosched()
			if advanced() || time.Now().After(deadline) {
				break
			}
		}
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if r.Stats().CounterTicks == 0 {
		t.Fatal("counter ticks = 0 after software-counter run")
	}
	var prev uint64
	distinct := 0
	for i := 0; i < r.Log().Len(); i++ {
		e, err := r.Log().Entry(i)
		if err != nil {
			t.Fatal(err)
		}
		if e.Counter < prev {
			t.Fatalf("entry %d: counter went backwards (%d -> %d)", i, prev, e.Counter)
		}
		if e.Counter != prev {
			distinct++
		}
		prev = e.Counter
	}
	if runtime.NumCPU() > 1 && distinct < 2 {
		t.Errorf("counter never advanced across %d entries on a %d-core host",
			r.Log().Len(), runtime.NumCPU())
	}
}

func TestCounterTSCAndCustomSource(t *testing.T) {
	tab := symtab.New()
	r, err := New(tab, WithCounterMode(CounterTSC), WithCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	if r.Source() == nil {
		t.Fatal("nil source")
	}
	v := counter.NewVirtual(5)
	r2, err := New(tab, WithCounterSource(v), WithCapacity(16))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Source() != v {
		t.Error("custom source not installed")
	}
}

func TestLoadBias(t *testing.T) {
	const bias = 0x7000
	r, tab := newTestRecorder(t, WithLoadBias(bias))
	staticMain := tab.Addr("main")
	if got := r.AddrOf("main"); got != staticMain+bias {
		t.Errorf("AddrOf(main) = %#x, want %#x", got, staticMain+bias)
	}
	if got := r.AddrOf("missing"); got != 0 {
		t.Errorf("AddrOf(missing) = %#x, want 0", got)
	}
	wantAnchor := uint64(int64(tab.AnchorAddr()) + bias)
	if got := r.Log().ProfilerAddr(); got != wantAnchor {
		t.Errorf("header anchor = %#x, want %#x", got, wantAnchor)
	}
	// The analyzer-side recovery: installing the recorded anchor as load
	// bias makes runtime addresses resolve.
	tab.SetLoadBias(r.Log().ProfilerAddr())
	s, err := tab.Resolve(r.AddrOf("main"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "main" {
		t.Errorf("resolved %q, want main", s.Name)
	}
}

func TestStatsDropped(t *testing.T) {
	r, _ := newTestRecorder(t, WithCapacity(1))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	th := r.Thread()
	for i := 0; i < 5; i++ {
		th.Enter(1)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Entries != 1 {
		t.Errorf("Entries = %d, want 1", st.Entries)
	}
	if st.Dropped == 0 {
		t.Error("Dropped = 0, want > 0")
	}
}

func TestSelectiveFilterOption(t *testing.T) {
	tab := symtab.New()
	hot := tab.MustRegister("hot", 16, "a.go", 1)
	cold := tab.MustRegister("cold", 16, "a.go", 2)
	f, err := probe.NewFilter(tab, func(s symtab.Symbol) bool { return s.Name == "hot" })
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(tab, WithCounterMode(CounterVirtual), WithCapacity(16), WithFilter(f))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	th := r.Thread()
	th.Enter(hot)
	th.Enter(cold)
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := r.Log().Len(); got != 1 {
		t.Errorf("selective run recorded %d entries, want 1", got)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	r, tab := newTestRecorder(t, WithPID(99))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	th := r.Thread()
	main := r.AddrOf("main")
	work := r.AddrOf("work")
	th.Enter(main)
	th.Enter(work)
	th.Exit(work)
	th.Exit(main)
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := r.PersistTo(&buf); err != nil {
		t.Fatal(err)
	}
	gotTab, gotLog, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotLog.PID() != 99 {
		t.Errorf("decoded PID = %d, want 99", gotLog.PID())
	}
	if gotLog.Len() != 4 {
		t.Errorf("decoded log has %d entries, want 4", gotLog.Len())
	}
	if gotTab.Len() != tab.Len() {
		t.Errorf("decoded %d symbols, want %d", gotTab.Len(), tab.Len())
	}
	entries := gotLog.Entries()
	if entries[1].Addr != work {
		t.Errorf("entry 1 addr = %#x, want %#x", entries[1].Addr, work)
	}
}

func TestPersistToFile(t *testing.T) {
	r, _ := newTestRecorder(t)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.Thread().Enter(1)
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.teeperf")
	if err := r.Persist(path); err != nil {
		t.Fatal(err)
	}
	_, log, err := ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 1 {
		t.Errorf("file round trip: %d entries, want 1", log.Len())
	}
	if _, _, err := ReadBundleFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestReadBundleErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{name: "empty", input: ""},
		{name: "bad header", input: "WRONG\n"},
		{name: "missing section", input: "TEEPERF-BUNDLE 1\n"},
		{name: "wrong section name", input: "TEEPERF-BUNDLE 1\nsection nope 4\nabcd"},
		{name: "bad length", input: "TEEPERF-BUNDLE 1\nsection syms x\n"},
		{name: "negative length", input: "TEEPERF-BUNDLE 1\nsection syms -1\n"},
		{name: "short body", input: "TEEPERF-BUNDLE 1\nsection syms 100\nabc"},
		{name: "garbage symbols", input: "TEEPERF-BUNDLE 1\nsection syms 4\nXXXX"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := ReadBundle(strings.NewReader(tt.input)); !errors.Is(err, ErrBadBundle) {
				t.Fatalf("err = %v, want ErrBadBundle", err)
			}
		})
	}
}

// TestReadBundleForgedLengthBoundedMemory feeds bundles whose declared
// section lengths promise up to 2 GiB that never arrive. The strict, file
// and lenient readers must each fail with ErrBadBundle without allocating
// what the header claims.
func TestReadBundleForgedLengthBoundedMemory(t *testing.T) {
	var syms bytes.Buffer
	if _, err := symtab.New().WriteTo(&syms); err != nil {
		t.Fatal(err)
	}
	forged := map[string]string{
		"syms": "TEEPERF-BUNDLE 1\nsection syms 2147483647\nxx",
		"log":  fmt.Sprintf("TEEPERF-BUNDLE 1\nsection syms %d\n%ssection log 2147483647\nxx", syms.Len(), syms.String()),
	}
	readers := map[string]func(t *testing.T, input string) error{
		"strict": func(t *testing.T, input string) error {
			_, _, err := ReadBundle(strings.NewReader(input))
			return err
		},
		"file": func(t *testing.T, input string) error {
			path := filepath.Join(t.TempDir(), "forged.teeperf")
			if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err := ReadBundleFile(path)
			return err
		},
		"lenient": func(t *testing.T, input string) error {
			_, _, _, err := ReadBundleLenient(strings.NewReader(input))
			return err
		},
	}
	for rname, read := range readers {
		for fname, input := range forged {
			if rname == "lenient" && fname == "log" {
				continue // the lenient reader ignores the log section's length
			}
			t.Run(rname+"/"+fname, func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := read(t, input)
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrBadBundle) {
					t.Fatalf("err = %v, want ErrBadBundle", err)
				}
				if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
					t.Fatalf("allocated %d bytes for a forged length", d)
				}
			})
		}
	}
}

func TestWriteBundleValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBundle(&buf, nil, nil); err == nil {
		t.Error("nil args should fail")
	}
}

func TestStatsExtendedFields(t *testing.T) {
	r, _ := newTestRecorder(t) // capacity 1<<10
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	th := r.Thread()
	addr := r.AddrOf("work")
	for i := 0; i < 256; i++ {
		th.Enter(addr)
		th.Exit(addr)
	}

	st := r.Stats()
	if st.Capacity != 1<<10 {
		t.Errorf("Capacity = %d, want %d", st.Capacity, 1<<10)
	}
	if st.FillPercent != 50 {
		t.Errorf("FillPercent = %f, want 50 (512 of 1024 entries)", st.FillPercent)
	}
	if st.Rotations != 0 {
		t.Errorf("Rotations = %d before any rotation", st.Rotations)
	}
	if st.Duration <= 0 {
		t.Errorf("live Duration = %v while running, want > 0", st.Duration)
	}
	if st.CounterTicks == 0 {
		t.Error("CounterTicks = 0 with a virtual source")
	}

	if _, err := r.Rotate(); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.Rotations != 1 {
		t.Errorf("Rotations = %d after Rotate, want 1", st.Rotations)
	}
	if st.FillPercent != 0 {
		t.Errorf("FillPercent = %f on the fresh segment, want 0", st.FillPercent)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStatsDropRate(t *testing.T) {
	tab := symtab.New()
	tab.MustRegister("work", 16, "main.go", 1)
	r, err := New(tab, WithCounterMode(CounterVirtual), WithCapacity(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	th := r.Thread()
	addr := r.AddrOf("work")
	for i := 0; i < 10; i++ { // 20 events into 8 slots
		th.Enter(addr)
		th.Exit(addr)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Dropped != 12 {
		t.Errorf("Dropped = %d, want 12", st.Dropped)
	}
	if st.DropRate <= 0 {
		t.Errorf("DropRate = %f with %d drops over %v", st.DropRate, st.Dropped, st.Duration)
	}
	if st.FillPercent != 100 {
		t.Errorf("FillPercent = %f on a full log", st.FillPercent)
	}
}
