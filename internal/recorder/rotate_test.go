package recorder

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"teeperf/internal/analyzer"
	"teeperf/internal/probe"
	"teeperf/internal/symtab"
)

func TestRotatePreservesEventsAcrossSegments(t *testing.T) {
	r, _ := newTestRecorder(t, WithCapacity(64))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	th := r.Thread()
	fn := r.AddrOf("work")

	// Fill one segment with balanced pairs, rotate, fill the next.
	for i := 0; i < 30; i++ {
		th.Enter(fn)
		th.Exit(fn)
	}
	prev, err := r.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if prev.Len() != 60 {
		t.Fatalf("rotated segment has %d entries, want 60", prev.Len())
	}
	for i := 0; i < 20; i++ {
		th.Enter(fn)
		th.Exit(fn)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := r.Log().Len(); got != 40 {
		t.Fatalf("active segment has %d entries, want 40", got)
	}
	if r.Segments() != 1 {
		t.Errorf("Segments() = %d, want 1", r.Segments())
	}

	// Analyze both segments and merge: nothing lost.
	p1, err := analyzer.Analyze(prev, r.Table())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := analyzer.Analyze(r.Log(), r.Table())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := analyzer.Merge(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	stat, ok := merged.Func("work")
	if !ok || stat.Calls != 50 {
		t.Errorf("merged work calls = %d, want 50", stat.Calls)
	}
}

func TestRotateCounterContinuity(t *testing.T) {
	tab := symtab.New()
	tab.MustRegister("fn", 16, "f.go", 1)
	r, err := New(tab, WithCapacity(256)) // software counter (log-bound)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	// Let the counter accumulate, then rotate: the new segment's counter
	// must start at or beyond the old one (monotonic ticks across the
	// whole run).
	deadline := time.Now().Add(2 * time.Second)
	for r.Log().LoadCounter() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	before := r.Log().LoadCounter()
	if before == 0 {
		t.Skip("software counter got no CPU time")
	}
	prev, err := r.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Log().LoadCounter(); got < prev.LoadCounter() {
		t.Errorf("counter went backwards across rotation: %d -> %d", prev.LoadCounter(), got)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestAutoRotatePersistsSegments(t *testing.T) {
	dir := t.TempDir()
	r, _ := newTestRecorder(t, WithCapacity(128))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.StartAutoRotate(dir, 0.5, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := r.StartAutoRotate(dir, 0.5, time.Millisecond); err == nil {
		t.Error("double StartAutoRotate should fail")
	}
	th := r.Thread()
	fn := r.AddrOf("work")
	// Write far more events than one segment holds; auto-rotation must
	// prevent drops.
	for i := 0; i < 2000; i++ {
		th.Enter(fn)
		th.Exit(fn)
		if i%32 == 0 {
			time.Sleep(time.Millisecond) // give the watcher its ticks
		}
	}
	if err := r.Stop(); err != nil { // implies StopAutoRotate
		t.Fatal(err)
	}
	dropped := r.Stats().Dropped
	if err := r.Persist(filepath.Join(dir, "final.teeperf")); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("only %d files persisted; auto-rotation did not trigger", len(entries))
	}

	// Recover every event by merging all segments.
	var (
		profiles    []*analyzer.Profile
		totalEvents int
	)
	for _, e := range entries {
		tab, log, err := ReadBundleFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("segment %s: %v", e.Name(), err)
		}
		totalEvents += log.Len()
		p, err := analyzer.Analyze(log, tab)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	merged, err := analyzer.Merge(profiles...)
	if err != nil {
		t.Fatal(err)
	}
	// Exact conservation: every probe event either landed in some segment
	// or was counted as dropped at run time. (Drops can still occur if the
	// watcher falls behind between its ticks.)
	recovered := uint64(totalEvents)
	if got := recovered + dropped; got != 4000 {
		t.Errorf("events: recovered %d + dropped %d = %d, want 4000", recovered, dropped, got)
	}
	// Complete-call counts vary with scheduling (pairs split across a
	// rotation seam become truncated/unmatched; bursts between watcher
	// ticks can drop). Conservation above is the hard invariant; here we
	// only require that a meaningful number of calls survived intact.
	stat, _ := merged.Func("work")
	if stat.Calls < 100 {
		t.Errorf("merged complete calls = %d, want at least a few hundred", stat.Calls)
	}
}

// recordPaced records pairs call pairs on th, pausing after each so the
// auto-rotation watcher gets its ticks.
func recordPaced(th *probe.Thread, fn uint64, pairs int) {
	for i := 0; i < pairs; i++ {
		th.Enter(fn)
		th.Exit(fn)
		time.Sleep(200 * time.Microsecond)
	}
}

// segmentEntries sums the entries of the committed segment files in dir
// (a .part file is a write still in progress).
func segmentEntries(t *testing.T, dir string) (files, entries int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "segment-*.teeperf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		_, log, err := ReadBundleFile(path)
		if err != nil {
			t.Fatalf("segment %s: %v", path, err)
		}
		entries += log.Len()
	}
	return len(paths), entries
}

// TestAutoRotateCountsUnwrittenSegments: rotated-out segments whose files
// cannot be written are not silently discarded. With the rotation
// directory gone for the whole run, Stop reports the failure and every
// event is either in the active segment, dropped, or counted lost.
func TestAutoRotateCountsUnwrittenSegments(t *testing.T) {
	const pairs = 200
	dir := filepath.Join(t.TempDir(), "segments")
	r, _ := newTestRecorder(t, WithCapacity(64))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.StartAutoRotate(dir, 0.5, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	recordPaced(r.Thread(), r.AddrOf("work"), pairs)
	if err := r.Stop(); err == nil {
		t.Fatal("Stop = nil with every rotated-out segment unwritten")
	}
	st := r.Stats()
	if st.Rotations == 0 {
		t.Fatal("no rotation happened; the scenario did not run")
	}
	if st.RotatedLost == 0 {
		t.Errorf("RotatedLost = 0 after %d failed segment writes", st.Rotations)
	}
	if got := st.RotatedLost + uint64(st.Entries) + st.Dropped; got != 2*pairs {
		t.Errorf("lost %d + active %d + dropped %d = %d, want %d",
			st.RotatedLost, st.Entries, st.Dropped, got, 2*pairs)
	}
}

// TestAutoRotateRetriesUnwrittenSegments: a segment whose write failed
// stays queued and is written on a later tick once the directory is back,
// so nothing is lost.
func TestAutoRotateRetriesUnwrittenSegments(t *testing.T) {
	const pairs = 200
	dir := filepath.Join(t.TempDir(), "segments")
	r, _ := newTestRecorder(t, WithCapacity(64))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.StartAutoRotate(dir, 0.5, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	th, fn := r.Thread(), r.AddrOf("work")
	recordPaced(th, fn, pairs/2)
	rotated := r.Segments()
	if rotated == 0 {
		t.Fatal("no rotation happened while the directory was gone")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// The queued segments go out on the watcher's next ticks, before Stop.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if files, _ := segmentEntries(t, dir); files >= rotated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued segments not written within 5s of the directory's return")
		}
		time.Sleep(time.Millisecond)
	}
	recordPaced(th, fn, pairs/2)
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.RotatedLost != 0 {
		t.Errorf("RotatedLost = %d, want 0", st.RotatedLost)
	}
	files, written := segmentEntries(t, dir)
	if files != st.Rotations {
		t.Errorf("%d segment files for %d rotations", files, st.Rotations)
	}
	if got := uint64(written+st.Entries) + st.Dropped; got != 2*pairs {
		t.Errorf("written %d + active %d + dropped %d = %d, want %d",
			written, st.Entries, st.Dropped, got, 2*pairs)
	}
}

// TestRotateTombstonesIdleThreadBlocks: a batched thread that goes idle
// still holds reserved slots in the segment being rotated out; Rotate must
// release them eagerly so the segment is persisted with tombstones
// (dismissed, not counted as pending) instead of permanent in-flight holes.
func TestRotateTombstonesIdleThreadBlocks(t *testing.T) {
	r, _ := newTestRecorder(t, WithCapacity(64), WithBatch(8))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	fn := r.AddrOf("work")
	busy, idle := r.Thread(), r.Thread()
	idle.Enter(fn) // reserves a block of 8, fills one slot, goes idle
	for i := 0; i < 5; i++ {
		busy.Enter(fn)
		busy.Exit(fn)
	}

	prev, err := r.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	// The busy thread's 10 events span two 8-slot blocks and the idle
	// thread holds one more; every unfilled slot of those 24 must now read
	// as a tombstone, not an in-flight hole.
	if got := prev.Len(); got != 24 {
		t.Fatalf("rotated segment reserved %d slots, want 24", got)
	}
	c := prev.Cursor()
	if drained := c.Next(nil); len(drained) != 11 || c.Pending() != 0 {
		t.Fatalf("rotated segment: %d entries, %d pending holes; want 11 and 0", len(drained), c.Pending())
	}
	// The idle thread can still record afterwards — into the new segment.
	idle.Exit(fn)
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := r.Log().Entries(); len(got) != 1 {
		t.Fatalf("new segment has %d entries, want the idle thread's exit", len(got))
	}
}

func TestAutoRotateValidation(t *testing.T) {
	r, _ := newTestRecorder(t)
	if err := r.StartAutoRotate(t.TempDir(), 0, time.Millisecond); err == nil {
		t.Error("threshold 0 should fail")
	}
	if err := r.StartAutoRotate(t.TempDir(), 1.5, time.Millisecond); err == nil {
		t.Error("threshold > 1 should fail")
	}
	r.StopAutoRotate() // never started: must be a safe no-op
}

func TestPersistSegmentError(t *testing.T) {
	r, _ := newTestRecorder(t)
	if err := r.PersistSegment(r.Log(), filepath.Join(t.TempDir(), "nodir", "x")); err == nil {
		t.Error("unwritable path should fail")
	}
}

// A rotated segment is written even while a Persist or checkpoint pass
// holds the file lock: waiting there would delay the next rotation until
// the log drops events.
func TestPersistSegmentDoesNotWaitForCheckpoint(t *testing.T) {
	r, _ := newTestRecorder(t)
	r.fileMu.Lock()
	defer r.fileMu.Unlock()
	done := make(chan error, 1)
	go func() { done <- r.PersistSegment(r.Log(), filepath.Join(t.TempDir(), "segment-0001.teeperf")) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PersistSegment waited for the checkpoint lock")
	}
}
