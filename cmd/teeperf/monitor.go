package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"teeperf/internal/agent"
	"teeperf/internal/monitor"
	"teeperf/internal/recorder"
	"teeperf/internal/symtab"
	"teeperf/internal/tee"
)

// liveFlags are the workload/run options shared by the monitor and serve
// commands, which both record a workload while observing it live.
type liveFlags struct {
	workload string
	platform string
	scale    int
	ops      int
	repeat   int
	capacity int
	shards   int
	batch    int
	sample   uint64
	interval time.Duration
}

func (lf *liveFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&lf.workload, "workload", "phoenix/word_count", "one of: "+strings.Join(recordableWorkloads(), ", "))
	fs.StringVar(&lf.platform, "platform", "sgx-v1", "TEE platform: "+strings.Join(tee.PlatformNames(), ", "))
	fs.IntVar(&lf.scale, "scale", 1, "workload scale (phoenix only)")
	fs.IntVar(&lf.ops, "ops", 5000, "operations (dbbench/spdk only)")
	fs.IntVar(&lf.repeat, "repeat", 1, "run the workload this many times back to back")
	fs.IntVar(&lf.capacity, "capacity", 1<<22, "log capacity in entries")
	fs.IntVar(&lf.shards, "shards", 1, "log shard count (per-thread tail segments; threads hash to shards by ID)")
	fs.IntVar(&lf.batch, "batch", 1, "probe slot-reservation batch size (events per tail fetch-and-add)")
	fs.Uint64Var(&lf.sample, "sample", 1, "record one call pair in N (1 = every pair); analyzers scale weights back up by N")
	fs.DurationVar(&lf.interval, "interval", 500*time.Millisecond, "sampling/refresh interval")
}

// startLiveRun builds the recorder, starts it, and launches the workload
// in the background. The returned channel yields the workload's error when
// it finishes.
func startLiveRun(lf *liveFlags) (*recorder.Recorder, <-chan error, error) {
	if lf.interval <= 0 {
		return nil, nil, fmt.Errorf("interval must be positive, got %v", lf.interval)
	}
	platform, err := tee.ByName(lf.platform)
	if err != nil {
		return nil, nil, err
	}
	tab := symtab.New()
	run, err := prepareWorkload(lf.workload, tab, platform, lf.scale, lf.ops)
	if err != nil {
		return nil, nil, err
	}
	rec, err := buildRecorder(tab, lf.capacity, lf.shards, lf.batch, "", lf.sample)
	if err != nil {
		return nil, nil, err
	}
	if err := rec.Start(); err != nil {
		return nil, nil, err
	}
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < lf.repeat && err == nil; i++ {
			err = run(rec)
		}
		done <- err
	}()
	return rec, done, nil
}

// cmdMonitor records a workload while refreshing a top-N hot-methods view
// in place in the terminal — the live counterpart of `record` + `analyze`.
func cmdMonitor(args []string) error {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	var lf liveFlags
	lf.register(fs)
	top := fs.Int("top", 10, "number of functions to show")
	plain := fs.Bool("plain", false, "do not clear the screen between refreshes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rec, done, err := startLiveRun(&lf)
	if err != nil {
		return err
	}
	mon := monitor.New(rec, monitor.WithInterval(lf.interval))
	mon.Start()

	clear := !*plain && stdoutIsTerminal()
	display := func() {
		if clear {
			fmt.Print("\x1b[H\x1b[2J")
		}
		_ = mon.WriteTop(os.Stdout, *top)
	}

	ticker := time.NewTicker(lf.interval)
	defer ticker.Stop()
	var werr error
loop:
	for {
		select {
		case werr = <-done:
			break loop
		case <-ticker.C:
			display()
		}
	}
	_ = rec.Stop()
	mon.Stop() // final drain: the closing table covers every committed entry
	if clear {
		fmt.Print("\x1b[H\x1b[2J")
	}
	fmt.Println("final profile:")
	if err := mon.WriteTop(os.Stdout, *top); err != nil {
		return err
	}
	printStatsSummary(rec.Stats())
	return werr
}

// cmdServe records a workload while serving it live over HTTP: the
// recorder is hosted as one agent session named after the workload, so
// /metrics, /vars, /sessions, /profile.json?session=, /trace?session= and
// the HTML page at / are the fleet agent's endpoints.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var lf liveFlags
	lf.register(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address (use port 0 for an ephemeral port)")
	linger := fs.Duration("linger", 0, "keep serving this long after the workload finishes")
	addrFile := fs.String("addr-file", "", "write the bound address to this file (for scripts)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rec, done, err := startLiveRun(&lf)
	if err != nil {
		return err
	}
	srv, mon, err := serveRecorder(rec, lf.workload, lf.interval, *addr)
	if err != nil {
		_ = rec.Stop()
		return err
	}
	defer srv.Close()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr()), 0o644); err != nil {
			_ = rec.Stop()
			return err
		}
	}
	fmt.Printf("serving live monitor on %s\n", srv.URL())

	werr := <-done
	_ = rec.Stop()
	if *linger > 0 {
		fmt.Printf("workload finished; serving for another %v\n", *linger)
		time.Sleep(*linger)
	}
	fmt.Println("final profile:")
	if err := mon.WriteTop(os.Stdout, 10); err != nil {
		return err
	}
	printStatsSummary(rec.Stats())
	return werr
}

// serveRecorder hosts a monitor over rec as the agent session name and
// serves the agent's HTTP plane on addr, scraping every interval (0 takes
// the agent's default). Closing the server stops the scrape loop.
func serveRecorder(rec *recorder.Recorder, name string, interval time.Duration, addr string) (*agent.Server, *monitor.Monitor, error) {
	mon := monitor.New(rec)
	a := agent.New(agent.Config{Interval: interval})
	a.Host(name, mon)
	srv, err := agent.Serve(a, addr)
	return srv, mon, err
}

// stdoutIsTerminal reports whether stdout is an interactive terminal (in
// which case the monitor clears the screen between refreshes).
func stdoutIsTerminal() bool {
	info, err := os.Stdout.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}
