package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
)

// cmdRun is the paper's wrapper workflow: the recorder process creates the
// shared-memory mapping, hosts the software counter, then spawns the
// instrumented application, which opens the mapping (via the TEEPERF_SHM
// environment variable) and appends events from its own address space.
// When the application exits — cleanly or not — the recorder persists the
// bundle from the mapping it still holds:
//
//	teeperf run -o run.teeperf -- ./myapp -its -flags
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	output := fs.String("o", "run.teeperf", "output bundle path")
	shm := fs.String("shm", "", "shared mapping path (default <output>.shm)")
	capacity := fs.Int("capacity", 1<<20, "log capacity in entries")
	shards := fs.Int("shards", 1, "log shard count (per-thread tail segments; threads hash to shards by ID)")
	checkpoint := fs.Duration("checkpoint", 0, "crash-consistent checkpoint interval (0 disables)")
	keepShm := fs.Bool("keep-shm", false, "keep the mapping and symbol side file after persisting")
	addr := fs.String("addr", "", "serve live metrics over HTTP on this address while the command runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	argv := fs.Args()
	if len(argv) > 0 && argv[0] == "--" {
		argv = argv[1:]
	}
	if len(argv) == 0 {
		return usageErr{errors.New("run needs a command: teeperf run [options] -- <cmd> [args...]")}
	}
	if !shmlog.MmapSupported {
		return fmt.Errorf("cross-process recording needs mmap support, unavailable on this platform: %w", shmlog.ErrMmapUnsupported)
	}
	// record's single-CPU fallback (TSC) cannot apply here: the profiled
	// process reads time from the shared counter word, which only the
	// hosted spin thread advances. Warn instead of silently attributing
	// zero ticks.
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "teeperf run: single CPU — the hosted counter thread shares the core with the profiled command; tick attribution will be coarse")
	}
	if *shm == "" {
		*shm = *output + ".shm"
	}

	rec, err := recorder.Create(*shm, recorder.WithCapacity(*capacity), recorder.WithShards(*shards))
	if err != nil {
		return err
	}
	defer rec.Log().Close()
	if err := rec.Start(); err != nil {
		return err
	}
	// The agent's scrape loop reads the mapping, so serving stops before
	// the mapping is unmapped below.
	stopServing := func() {}
	if *addr != "" {
		srv, _, err := serveRecorder(rec, "main", 0, *addr)
		if err != nil {
			_ = rec.Stop()
			return err
		}
		stopServing = func() { _ = srv.Close() }
		defer stopServing()
		fmt.Fprintf(os.Stderr, "live monitor on http://%s/\n", srv.Addr())
	}
	if *checkpoint > 0 {
		if err := rec.StartCheckpoint(*output, *checkpoint); err != nil {
			_ = rec.Stop()
			return err
		}
	}

	// The application publishes its symbol table as a side file once its
	// probes are registered; watch for it so mid-run checkpoints (and the
	// live monitor) resolve names instead of raw addresses. stopSyms does
	// a final unconditional read — the application may publish right
	// before exiting.
	stopSyms := rec.WatchSyms(*shm, 100*time.Millisecond)

	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdin = os.Stdin
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), recorder.SharedEnv+"="+*shm)
	runErr := cmd.Run()
	if err := stopSyms(); err != nil {
		fmt.Fprintf(os.Stderr, "teeperf run: %v\n", err)
	}

	if err := rec.Stop(); err != nil {
		return err
	}
	// Persist even when the child failed or was killed: whatever reached
	// the mapping is exactly what crash salvage is for. With -checkpoint,
	// Stop's final checkpoint pass already wrote it to <output>.
	if *checkpoint <= 0 {
		if err := rec.Persist(*output); err != nil {
			if runErr != nil {
				return fmt.Errorf("command failed (%v) and persist failed: %w", runErr, err)
			}
			return err
		}
	}
	st := rec.Stats()
	fmt.Printf("recorded %d events (%d dropped) in %v; wrote %s\n",
		st.Entries, st.Dropped, st.Duration.Round(1e6), *output)
	printStatsSummary(st)
	stopServing()

	if !*keepShm {
		if err := rec.Log().Close(); err != nil {
			return err
		}
		_ = os.Remove(*shm)
		_ = os.Remove(recorder.SymsPath(*shm))
	}
	if runErr != nil {
		return fmt.Errorf("command %q: %w (profile salvaged to %s)", argv[0], runErr, *output)
	}
	return nil
}
