package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"teeperf/internal/analyzer"
	"teeperf/internal/kvstore"
	"teeperf/internal/phoenix"
	"teeperf/internal/probe"
	"teeperf/internal/recorder"
	"teeperf/internal/sgxperf"
	"teeperf/internal/shmlog"
	"teeperf/internal/spdknvme"
	"teeperf/internal/symtab"
	"teeperf/internal/tee"
)

// cmdRecord runs a built-in workload inside a simulated TEE under TEE-Perf
// and persists the profile bundle, so every analysis command has something
// real to chew on without writing code:
//
//	teeperf record -workload phoenix/word_count -platform sgx-v1 -o run.teeperf
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	workload := fs.String("workload", "phoenix/word_count", "one of: "+strings.Join(recordableWorkloads(), ", "))
	platformName := fs.String("platform", "sgx-v1", "TEE platform: "+strings.Join(tee.PlatformNames(), ", "))
	output := fs.String("o", "run.teeperf", "output bundle path")
	scale := fs.Int("scale", 1, "workload scale (phoenix only)")
	ops := fs.Int("ops", 5000, "operations (dbbench/spdk only)")
	capacity := fs.Int("capacity", 1<<22, "log capacity in entries")
	shards := fs.Int("shards", 1, "log shard count (per-thread tail segments; threads hash to shards by ID)")
	batch := fs.Int("batch", 1, "probe slot-reservation batch size (events per tail fetch-and-add)")
	sample := fs.Uint64("sample", 1, "record one call pair in N (1 = every pair); analyzers scale weights back up by N")
	mask := fs.String("mask", "", "thread deny bitmask (e.g. 0x2): threads whose (id-1)%64 bit is set record nothing")
	selective := fs.String("only", "", "substring filter for selective profiling")
	transitions := fs.Bool("transitions", false, "also print a transition-level (sgx-perf style) report")
	checkpoint := fs.Duration("checkpoint", 0, "crash-consistent checkpoint interval (0 disables); snapshots the bundle to <output> periodically so a killed run stays recoverable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	platform, err := tee.ByName(*platformName)
	if err != nil {
		return err
	}

	var (
		tracer   *sgxperf.Tracer
		enclOpts []tee.EnclaveOption
	)
	if *transitions {
		tracer = sgxperf.New()
		enclOpts = append(enclOpts, tee.WithTransitionListener(tracer.Listener()))
	}
	tab := symtab.New()
	run, err := prepareWorkload(*workload, tab, platform, *scale, *ops, enclOpts...)
	if err != nil {
		return err
	}

	rec, err := buildRecorder(tab, *capacity, *shards, *batch, *selective, *sample)
	if err != nil {
		return err
	}
	if *mask != "" {
		m, err := strconv.ParseUint(*mask, 0, 64)
		if err != nil {
			return fmt.Errorf("bad -mask %q: %w", *mask, err)
		}
		rec.SetThreadMask(m)
	}
	if err := rec.Start(); err != nil {
		return err
	}
	if *checkpoint > 0 {
		// Periodically snapshot the bundle to <output> (written as
		// <output>.part, renamed atomically), so a recorder killed
		// mid-run leaves a loadable bundle — at worst a torn .part that
		// `teeperf recover` salvages.
		if err := rec.StartCheckpoint(*output, *checkpoint); err != nil {
			_ = rec.Stop()
			return err
		}
	}
	if err := run(rec); err != nil {
		_ = rec.Stop()
		return err
	}
	if err := rec.Stop(); err != nil {
		return err
	}
	// With -checkpoint, Stop's final checkpoint pass already wrote the
	// finished bundle to <output>.
	if *checkpoint <= 0 {
		if err := rec.Persist(*output); err != nil {
			return err
		}
	}
	st := rec.Stats()
	fmt.Printf("recorded %d events (%d dropped) in %v; wrote %s\n",
		st.Entries, st.Dropped, st.Duration.Round(1e6), *output)
	printStatsSummary(st)
	if tracer != nil {
		fmt.Println()
		if err := tracer.WriteReport(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// buildRecorder assembles the recorder used by record, monitor and serve:
// fixed capacity, optional log sharding, optional batched slot reservation,
// optional call-pair sampling, optional selective-profiling filter, and the
// single-CPU fallback from the software counter to the TSC source.
func buildRecorder(tab *symtab.Table, capacity, shards, batch int, selective string, sample uint64) (*recorder.Recorder, error) {
	recOpts := []recorder.Option{
		recorder.WithCapacity(capacity),
		recorder.WithPID(uint64(os.Getpid())),
	}
	if shards > 1 {
		recOpts = append(recOpts, recorder.WithShards(shards))
	}
	if batch > 1 {
		recOpts = append(recOpts, recorder.WithBatch(batch))
	}
	if sample > 1 {
		recOpts = append(recOpts, recorder.WithSamplePeriod(sample))
	}
	// The software counter needs a spare core for its spin thread; on a
	// single-CPU machine fall back to the TSC source (and say so).
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "teeperf: single CPU — using the TSC counter instead of the software counter")
		recOpts = append(recOpts, recorder.WithCounterMode(recorder.CounterTSC))
	}
	if selective != "" {
		filter, err := probe.NewFilter(tab, func(s symtab.Symbol) bool {
			return strings.Contains(s.Name, selective)
		})
		if err != nil {
			return nil, err
		}
		recOpts = append(recOpts, recorder.WithFilter(filter))
	}
	return recorder.New(tab, recOpts...)
}

// printStatsSummary reports the run's recorder health on stderr, and warns
// loudly about drops — a silent drop means a silently truncated profile.
func printStatsSummary(st recorder.Stats) {
	fmt.Fprintf(os.Stderr, "stats: %d entries, %d dropped, %.1f%% fill, %v\n",
		st.Entries, st.Dropped, st.FillPercent, st.Duration.Round(1e6))
	if st.Dropped > 0 {
		fmt.Fprintf(os.Stderr,
			"WARNING: %d events were dropped (%.0f/s, log full at %d entries) — the profile is truncated.\n"+
				"         Increase capacity, use selective profiling (-only), or rotate segments.\n",
			st.Dropped, st.DropRate, st.Capacity)
	}
	if st.RotatedLost > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: %d entries of rotated-out segments could not be written — the profile is missing them.\n",
			st.RotatedLost)
	}
}

// runFn executes the prepared workload against a live recorder.
type runFn func(rec *recorder.Recorder) error

func prepareWorkload(name string, tab *symtab.Table, platform tee.Platform, scale, ops int, enclOpts ...tee.EnclaveOption) (runFn, error) {
	host := tee.NewHost(os.Getpid())
	encl, err := tee.NewEnclave(platform, host, enclOpts...)
	if err != nil {
		return nil, err
	}

	switch {
	case strings.HasPrefix(name, "phoenix/"):
		w, err := phoenix.ByName(strings.TrimPrefix(name, "phoenix/"))
		if err != nil {
			return nil, err
		}
		if err := w.RegisterSymbols(tab); err != nil {
			return nil, err
		}
		return func(rec *recorder.Recorder) error {
			runner, err := w.New(phoenix.Config{
				Enclave: encl,
				Hooks:   rec.Thread(),
				AddrOf:  rec.AddrOf,
			}, scale)
			if err != nil {
				return err
			}
			_, err = runner(encl.Thread())
			return err
		}, nil

	case name == "dbbench":
		if err := kvstore.RegisterBenchSymbols(tab); err != nil {
			return nil, err
		}
		return func(rec *recorder.Recorder) error {
			th := encl.Thread()
			db, err := kvstore.Open(host, th, "record-db", nil)
			if err != nil {
				return err
			}
			_, err = kvstore.RunDBBench(th, &kvstore.BenchConfig{
				DB:     db,
				Hooks:  rec.Thread(),
				AddrOf: rec.AddrOf,
				Ops:    ops,
			})
			return err
		}, nil

	case name == "spdk-naive" || name == "spdk-optimized":
		if err := spdknvme.RegisterPerfSymbols(tab); err != nil {
			return nil, err
		}
		mode := spdknvme.ModeNaive
		if name == "spdk-optimized" {
			mode = spdknvme.ModeOptimized
		}
		return func(rec *recorder.Recorder) error {
			dev, err := spdknvme.NewDevice(host, spdknvme.DeviceConfig{})
			if err != nil {
				return err
			}
			_, err = spdknvme.RunPerf(&spdknvme.PerfConfig{
				Device: dev,
				Thread: encl.Thread(),
				Hooks:  rec.Thread(),
				AddrOf: rec.AddrOf,
				Mode:   mode,
				Ops:    ops,
			})
			return err
		}, nil

	default:
		return nil, fmt.Errorf("unknown workload %q (want one of: %s)",
			name, strings.Join(recordableWorkloads(), ", "))
	}
}

func recordableWorkloads() []string {
	names := []string{"dbbench", "spdk-naive", "spdk-optimized"}
	for _, n := range phoenix.Names() {
		names = append(names, "phoenix/"+n)
	}
	sort.Strings(names)
	return names
}

// cmdDump prints raw log entries, resolved through the symbol table — the
// lowest-level view of a recording.
func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	input := fs.String("i", "", "profile bundle path")
	limit := fs.Int("n", 50, "maximum entries to print (0 = all)")
	thread := fs.Uint64("thread", 0, "only this thread (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		return fmt.Errorf("missing -i <bundle>")
	}
	tab, log, err := recorder.ReadBundleFile(*input)
	if err != nil {
		return err
	}
	if log.ProfilerAddr() != 0 {
		tab.SetLoadBias(log.ProfilerAddr())
	}
	fmt.Printf("%-8s %-8s %-16s %s\n", "THREAD", "KIND", "COUNTER", "FUNCTION")
	printed := 0
	dismissed := 0
	for i := 0; i < log.Len(); i++ {
		e, err := log.Entry(i)
		if err != nil {
			return err
		}
		// Slots a batched writer reserved but never committed (in-flight
		// holes) or released (tombstones) carry no event.
		if e.ThreadID == 0 || e.ThreadID == shmlog.TombstoneTID {
			dismissed++
			continue
		}
		if *thread != 0 && e.ThreadID != *thread {
			continue
		}
		fmt.Printf("%-8d %-8s %-16d %s\n", e.ThreadID, e.Kind, e.Counter, tab.Name(e.Addr))
		printed++
		if *limit > 0 && printed >= *limit {
			fmt.Printf("... (%d more entries)\n", log.Len()-i-1)
			break
		}
	}
	// A summary line the analyzer would produce.
	p, err := analyzer.Analyze(log, tab)
	if err != nil {
		return err
	}
	if dismissed > 0 {
		fmt.Printf("(%d uncommitted/released slots dismissed)\n", dismissed)
	}
	fmt.Printf("\n%d entries, %d threads, %d completed calls\n", log.Len(), len(p.Threads()), len(p.Records()))
	return nil
}
