package recorder

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"

	"teeperf/internal/analyzer"
	"teeperf/internal/faultinject"
	"teeperf/internal/symtab"
)

// Environment variables steering the re-exec'd child in the
// kill-at-every-fault-point test. TestMain intercepts them before any test
// runs, so the child executes only the crash scenario.
const (
	envChild     = "TEEPERF_CKPT_CHILD"
	envPoint     = "TEEPERF_CKPT_POINT"
	envPath      = "TEEPERF_CKPT_PATH"
	envNth       = "TEEPERF_CKPT_NTH"
	envSkipClean = "TEEPERF_CKPT_SKIP_CLEAN"
	envPersist   = "TEEPERF_CKPT_PERSIST"
)

func TestMain(m *testing.M) {
	if os.Getenv(envChild) != "" {
		runCheckpointChild()
		// runCheckpointChild only returns if the armed fault point never
		// fired — that is a test failure in the parent (no SIGKILL).
		fmt.Fprintln(os.Stderr, "checkpoint child: fault point never reached")
		os.Exit(3)
	}
	os.Exit(m.Run())
}

// runCheckpointChild is the crash victim: it records a workload, arms a
// process kill at the named fault point, and triggers a checkpoint pass
// (or, for CounterStall, just waits for the counter thread to reach the
// point). In the Persist phase it instead stops the recorder — whose final
// checkpoint lands at the path — and persists onto that same path, as
// `teeperf record -checkpoint` does. It never returns on success — SIGKILL
// takes the whole process.
func runCheckpointChild() {
	point, ok := faultinject.PointByName(os.Getenv(envPoint))
	if !ok {
		fmt.Fprintf(os.Stderr, "checkpoint child: unknown point %q\n", os.Getenv(envPoint))
		os.Exit(4)
	}
	path := os.Getenv(envPath)
	nth, _ := strconv.Atoi(os.Getenv(envNth))
	if nth < 1 {
		nth = 1
	}

	inj := faultinject.New(1)
	tab := symtab.New()
	tab.MustRegister("main", 16, "main.go", 1)
	tab.MustRegister("work", 16, "main.go", 10)
	mode := CounterVirtual
	if point == faultinject.CounterStall {
		// The counter-stall point lives on the software counter's spin
		// thread; only that mode reaches it.
		mode = CounterSoftware
	}
	r, err := New(tab,
		WithCounterMode(mode),
		WithCapacity(1<<10),
		WithFaultInjector(inj))
	if err == nil {
		err = r.Start()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkpoint child: %v\n", err)
		os.Exit(4)
	}
	th := r.Thread()
	for i := 0; i < 100; i++ {
		th.Enter(r.AddrOf("main"))
		th.Enter(r.AddrOf("work"))
		th.Exit(r.AddrOf("work"))
		th.Exit(r.AddrOf("main"))
	}

	// A huge interval parks the background loop; the child drives passes
	// deterministically with CheckpointNow.
	if err := r.StartCheckpoint(path, time.Hour); err != nil {
		fmt.Fprintf(os.Stderr, "checkpoint child: %v\n", err)
		os.Exit(4)
	}
	if os.Getenv(envSkipClean) == "" {
		// One clean pass so the parent can assert the final bundle survives
		// whatever the armed kill does to the NEXT pass.
		if err := r.CheckpointNow(); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint child: clean pass: %v\n", err)
			os.Exit(4)
		}
	}

	if os.Getenv(envPersist) != "" {
		if err := r.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint child: stop: %v\n", err)
			os.Exit(4)
		}
		inj.Arm(point, nth, faultinject.Kill())
		_ = r.Persist(path) // SIGKILL fires mid-write; this never returns
		return
	}
	inj.Arm(point, nth, faultinject.Kill())
	if point == faultinject.CounterStall {
		// The spin thread hits the point within microseconds; the deadline
		// only bounds a broken build.
		time.Sleep(10 * time.Second)
		return
	}
	_ = r.CheckpointNow() // SIGKILL fires mid-pass; this never returns
}

// runKillChild re-executes the test binary as a crash victim and asserts
// it died by SIGKILL. extraEnv selects a child phase (envSkipClean,
// envPersist).
func runKillChild(t *testing.T, point, path string, nth int, extraEnv ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		envChild+"=1",
		envPoint+"="+point,
		envPath+"="+path,
		envNth+"="+strconv.Itoa(nth),
	)
	for _, e := range extraEnv {
		cmd.Env = append(cmd.Env, e+"=1")
	}
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("child exited cleanly (err=%v) — the fault point never killed it\noutput: %s", err, out)
	}
	ws, ok := exitErr.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("child died wrong: %v (status %+v)\noutput: %s", err, exitErr.Sys(), out)
	}
}

// TestCheckpointKillAtEveryFaultPoint is the acceptance test for the
// crash-consistency design: SIGKILL the recorder between ANY two
// persistence steps (every checkpoint fault point) of a checkpoint pass,
// or of a Persist onto the final checkpoint's path, and the last completed
// bundle must still load strictly into a non-empty profile, while any
// torn .part left behind must at least be salvageable leniently.
func TestCheckpointKillAtEveryFaultPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill matrix skipped in -short")
	}
	for _, p := range faultinject.CheckpointPoints {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "run.teeperf")
			runKillChild(t, p.String(), path, 1)
			checkKilledBundle(t, p, path)
		})
		if p == faultinject.CounterStall {
			continue // not a point of the bundle-file writer
		}
		t.Run("persist-"+p.String(), func(t *testing.T) {
			t.Parallel()
			path := filepath.Join(t.TempDir(), "run.teeperf")
			runKillChild(t, p.String(), path, 1, envPersist)
			checkKilledBundle(t, p, path)
		})
	}
}

// checkKilledBundle asserts the recovery invariant after a kill at p: path
// loads strictly into a non-empty profile and any .part salvages.
func checkKilledBundle(t *testing.T, p faultinject.Point, path string) {
	t.Helper()
	// The atomic-rename contract: the final path always holds a complete
	// bundle from a finished write.
	tab, log, err := ReadBundleFile(path)
	if err != nil {
		t.Fatalf("final bundle unreadable after kill at %v: %v", p, err)
	}
	if log.Len() == 0 {
		t.Fatalf("final bundle empty after kill at %v", p)
	}
	prof, err := analyzer.Analyze(log, tab)
	if err != nil {
		t.Fatalf("analyze final bundle: %v", err)
	}
	if len(prof.Records()) == 0 {
		t.Fatalf("final profile has no completed calls after kill at %v", p)
	}

	// A torn .part (when the kill left one) must either salvage leniently
	// or be rejected as unrecoverable (e.g. zero bytes written before the
	// kill) — never anything worse. The final bundle above is the actual
	// safety net.
	if f, err := os.Open(path + ".part"); err == nil {
		defer f.Close()
		if _, _, _, err := ReadBundleLenient(f); err != nil && !errors.Is(err, ErrBadBundle) {
			t.Errorf("torn .part after kill at %v: unexpected error class: %v", p, err)
		}
	}
}

// TestCheckpointKillMidFirstWrite kills the recorder during the very first
// checkpoint's bundle write — before any complete checkpoint exists — and
// asserts the torn .part alone salvages into a non-empty profile. The
// workload is sized past the bundle writer's 4 KiB buffer so the kill
// lands on the second flush, mid-log.
func TestCheckpointKillMidFirstWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill test skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "run.teeperf")
	runKillChild(t, faultinject.CheckpointWrite.String(), path, 2, envSkipClean)

	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final bundle exists despite no pass completing (stat err=%v)", err)
	}
	f, err := os.Open(path + ".part")
	if err != nil {
		t.Fatalf("no torn .part after mid-write kill: %v", err)
	}
	defer f.Close()
	tab, log, rep, err := ReadBundleLenient(f)
	if err != nil {
		t.Fatalf("lenient read of torn .part: %v", err)
	}
	if log.Len() == 0 {
		t.Fatalf("nothing salvaged from torn .part (report %v)", rep)
	}
	prof, err := analyzer.AnalyzeRecovered(log, tab, rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Records()) == 0 {
		t.Fatal("salvaged profile has no records")
	}
	if prof.Recovery == nil {
		t.Fatal("recovered profile lost its recovery report")
	}
}

// TestCheckpointLifecycle covers the non-crash path: periodic passes land
// a loadable bundle, stats count passes, and stop semantics are
// idempotent.
func TestCheckpointLifecycle(t *testing.T) {
	r, tab := newTestRecorder(t)
	path := filepath.Join(t.TempDir(), "run.teeperf")

	if err := r.StartCheckpoint("", time.Millisecond); err == nil {
		t.Fatal("empty checkpoint path accepted")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	th := r.Thread()
	th.Enter(r.AddrOf("main"))
	th.Exit(r.AddrOf("main"))

	if err := r.StartCheckpoint(path, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := r.StartCheckpoint(path, time.Millisecond); err == nil {
		t.Fatal("double StartCheckpoint accepted")
	}
	// Wait for at least one background pass.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r.CheckpointStats().Passes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint pass completed within 5s")
		}
		time.Sleep(time.Millisecond)
	}

	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	cs := r.CheckpointStats()
	if cs.LastErr != nil {
		t.Fatalf("last pass error: %v", cs.LastErr)
	}
	if cs.Passes < 2 {
		t.Fatalf("passes = %d, want >= 2 (background + final)", cs.Passes)
	}
	if !cs.Configured || cs.LastSuccess.IsZero() || cs.BytesWritten == 0 || cs.ConsecutiveFailures != 0 {
		t.Fatalf("stats not accounted: %+v", cs)
	}
	if err := r.StopCheckpoint(); err != nil {
		t.Fatalf("StopCheckpoint after Stop: %v", err)
	}

	// The final checkpoint (run by Stop, after the flush) carries the full
	// recording.
	ltab, log, err := ReadBundleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != 2 {
		t.Fatalf("final checkpoint has %d entries, want 2", log.Len())
	}
	if ltab.Len() != tab.Len() {
		t.Fatalf("symbol table: %d symbols, want %d", ltab.Len(), tab.Len())
	}
	if _, err := os.Stat(path + ".part"); !os.IsNotExist(err) {
		t.Fatalf(".part left behind after clean shutdown (err=%v)", err)
	}
}

// TestCheckpointPassErrorIsStickyButRetried: a failed pass surfaces in
// CheckpointStats yet does not end checkpointing — the next clean pass
// overwrites the error.
func TestCheckpointPassErrorIsStickyButRetried(t *testing.T) {
	inj := faultinject.New(1)
	r, _ := newTestRecorder(t, WithFaultInjector(inj))
	path := filepath.Join(t.TempDir(), "run.teeperf")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.StartCheckpoint(path, time.Hour); err != nil {
		t.Fatal(err)
	}

	inj.Arm(faultinject.CheckpointBegin, 1, faultinject.Fail())
	if err := r.CheckpointNow(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected pass: err = %v", err)
	}
	if cs := r.CheckpointStats(); cs.Passes != 0 || cs.LastErr == nil || cs.ConsecutiveFailures != 1 {
		t.Fatalf("after failed pass: %+v", cs)
	}
	if err := r.CheckpointNow(); err != nil {
		t.Fatalf("clean retry failed: %v", err)
	}
	if cs := r.CheckpointStats(); cs.Passes != 1 || cs.LastErr != nil || cs.ConsecutiveFailures != 0 {
		t.Fatalf("after clean pass: %+v", cs)
	}
	if _, _, err := ReadBundleFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointShortWriteFailsPass: an injected short write must fail the
// pass (bufio reports it) rather than silently committing a torn bundle.
func TestCheckpointShortWriteFailsPass(t *testing.T) {
	inj := faultinject.New(1)
	r, _ := newTestRecorder(t, WithFaultInjector(inj))
	path := filepath.Join(t.TempDir(), "run.teeperf")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	th := r.Thread()
	th.Enter(r.AddrOf("main"))
	th.Exit(r.AddrOf("main"))
	if err := r.StartCheckpoint(path, time.Hour); err != nil {
		t.Fatal(err)
	}

	inj.Arm(faultinject.CheckpointWrite, 1, faultinject.Short())
	if err := r.CheckpointNow(); err == nil {
		t.Fatal("short write did not fail the pass")
	}
	// The rename never happened: no final bundle.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("short-written bundle was committed (err=%v)", err)
	}
}

// TestPersistFaultKeepsCheckpoint: a Persist that fails mid-write onto the
// path of a complete checkpoint must leave that checkpoint loadable — the
// write goes to path+".part" and never reaches the rename.
func TestPersistFaultKeepsCheckpoint(t *testing.T) {
	inj := faultinject.New(1)
	r, _ := newTestRecorder(t, WithFaultInjector(inj))
	path := filepath.Join(t.TempDir(), "run.teeperf")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	th := r.Thread()
	th.Enter(r.AddrOf("main"))
	th.Exit(r.AddrOf("main"))
	if err := r.StartCheckpoint(path, time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	th.Enter(r.AddrOf("work"))
	th.Exit(r.AddrOf("work"))

	inj.Arm(faultinject.CheckpointWrite, 1, faultinject.Short())
	if err := r.Persist(path); err == nil {
		t.Fatal("short write did not fail Persist")
	}
	_, log, err := ReadBundleFile(path)
	if err != nil {
		t.Fatalf("checkpoint torn by a failed Persist: %v", err)
	}
	if log.Len() != 2 {
		t.Fatalf("checkpoint has %d entries, want the 2 of the clean pass", log.Len())
	}
}

// TestPersistRacesCheckpointer: Persist calls onto the path a running
// checkpointer writes every millisecond, while probes record, must all
// succeed and leave a strictly loadable bundle each time (run under
// -race in CI).
func TestPersistRacesCheckpointer(t *testing.T) {
	r, _ := newTestRecorder(t, WithCapacity(1<<16))
	path := filepath.Join(t.TempDir(), "run.teeperf")
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		th := r.Thread()
		addr := r.AddrOf("main")
		for {
			select {
			case <-stop:
				return
			default:
			}
			th.Enter(addr)
			th.Exit(addr)
		}
	}()
	if err := r.StartCheckpoint(path, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := r.Persist(path); err != nil {
			t.Fatalf("Persist %d: %v", i, err)
		}
		if _, _, err := ReadBundleFile(path); err != nil {
			t.Fatalf("bundle after Persist %d: %v", i, err)
		}
	}
	close(stop)
	<-done
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	if cs := r.CheckpointStats(); cs.LastErr != nil {
		t.Fatalf("checkpoint pass failed: %v", cs.LastErr)
	}
	if _, _, err := ReadBundleFile(path); err != nil {
		t.Fatal(err)
	}
}
