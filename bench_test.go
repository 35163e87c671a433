package teeperf

// One benchmark per paper table/figure plus the ablations from DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// Figure/table benches execute the same harnesses as the cmd/ tools (at
// reduced repetition counts so a bench iteration stays bounded) and report
// the figure's headline number through b.ReportMetric.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"teeperf/internal/analyzer"
	"teeperf/internal/counter"
	"teeperf/internal/experiments"
	"teeperf/internal/flamegraph"
	"teeperf/internal/perfbase"
	"teeperf/internal/phoenix"
	"teeperf/internal/probe"
	"teeperf/internal/query"
	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
	"teeperf/internal/tee"
)

// BenchmarkFig4PhoenixOverhead regenerates Fig 4: TEE-Perf runtime over
// perf runtime on the Phoenix suite inside the SGX model. The reported
// metrics are the per-benchmark ratios and their geometric mean
// (paper: mean 1.9x, string_match 5.7x, linear_regression 0.92x).
func BenchmarkFig4PhoenixOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(experiments.Fig4Config{Scale: 2, Runs: 3, Warmups: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Mean, "mean-ratio")
		for _, row := range res.Rows {
			b.ReportMetric(row.Ratio, row.Benchmark+"-ratio")
		}
	}
}

// BenchmarkFig5RocksDB regenerates Fig 5: db_bench ReadRandomWriteRandom
// (80% reads) under TEE-Perf in SGX. Reported metric: the self-time share
// of rocksdb::Stats::Now(), the paper's headline hotspot.
func BenchmarkFig5RocksDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(experiments.Fig5Config{Ops: 8000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Profile.SelfFraction("rocksdb::Stats::Now()")*100, "stats-now-self-%")
		b.ReportMetric(float64(res.Bench.Ops), "ops")
	}
}

// fig6Config keeps the three SPDK benches comparable.
func fig6Config(ops int) experiments.Fig6Config {
	return experiments.Fig6Config{Ops: ops}
}

// BenchmarkFig6SPDKNaive regenerates Fig 6 (top): the naive SGX port's
// profile. Metrics: getpid and rdtsc self-time shares (paper: ~72%/~20%).
func BenchmarkFig6SPDKNaive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(fig6Config(8000))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Naive.Profile.SelfFraction("getpid")*100, "getpid-self-%")
		b.ReportMetric(res.Naive.Profile.SelfFraction("rdtsc")*100, "rdtsc-self-%")
	}
}

// BenchmarkFig6SPDKOptimized regenerates Fig 6 (bottom): after the caching
// fixes both hotspots collapse (paper: ~0%).
func BenchmarkFig6SPDKOptimized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(fig6Config(8000))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Optimized.Profile.SelfFraction("getpid")*100, "getpid-self-%")
		b.ReportMetric(res.Optimized.Profile.SelfFraction("rdtsc")*100, "rdtsc-self-%")
	}
}

// BenchmarkTableSPDKIOPS regenerates the §IV-C throughput table (paper:
// native 223,808 IOPS / naive 15,821 / optimized 232,736 → 14.7x).
func BenchmarkTableSPDKIOPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(fig6Config(10000))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Native.Perf.IOPS, "native-iops")
		b.ReportMetric(res.Naive.Perf.IOPS, "naive-iops")
		b.ReportMetric(res.Optimized.Perf.IOPS, "optimized-iops")
		b.ReportMetric(res.Speedup, "speedup-x")
	}
}

// --- Ablation A1: lock-free vs mutex log reservation ---

func benchLogAppend(b *testing.B, mode shmlog.Sync, threads int) {
	log, err := shmlog.New(b.N*threads+threads, shmlog.WithSync(mode))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.SetParallelism(threads)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			_ = log.Append(shmlog.Entry{Kind: shmlog.KindCall, Counter: i, Addr: i, ThreadID: 1})
			i++
		}
	})
}

// BenchmarkAblationLogLockFree measures the per-event log write under the
// paper's fetch-and-add design versus the portable mutex fallback.
func BenchmarkAblationLogLockFree(b *testing.B) {
	for _, threads := range []int{1, 4} {
		b.Run("atomic/"+itoa(threads), func(b *testing.B) { benchLogAppend(b, shmlog.SyncAtomic, threads) })
		b.Run("mutex/"+itoa(threads), func(b *testing.B) { benchLogAppend(b, shmlog.SyncMutex, threads) })
	}
}

func itoa(n int) string {
	if n == 1 {
		return "1thread"
	}
	return "4threads"
}

// --- Ablation A2: counter sources ---

// BenchmarkAblationCounterSources measures the full probe cost under each
// counter source.
func BenchmarkAblationCounterSources(b *testing.B) {
	sources := []struct {
		name string
		src  func(word counter.Word) counter.Source
	}{
		{name: "software", src: func(w counter.Word) counter.Source {
			s := counter.NewSoftware(w)
			s.Start()
			b.Cleanup(func() { _ = s.Stop() })
			return s
		}},
		{name: "tsc", src: func(counter.Word) counter.Source { return counter.NewTSC() }},
		{name: "virtual", src: func(counter.Word) counter.Source { return counter.NewVirtual(1) }},
	}
	for _, tc := range sources {
		b.Run(tc.name, func(b *testing.B) {
			log, err := shmlog.New(b.N + 2)
			if err != nil {
				b.Fatal(err)
			}
			rt, err := probe.New(log, tc.src(log))
			if err != nil {
				b.Fatal(err)
			}
			th := rt.Thread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Enter(0x400010)
			}
		})
	}
}

// --- Ablation A3: selective code profiling ---

// BenchmarkAblationSelective compares full instrumentation of string_match
// (the call-densest workload) against profiling only its top-level
// function, the paper's knob for shrinking logs and overhead.
func BenchmarkAblationSelective(b *testing.B) {
	for _, selective := range []bool{false, true} {
		name := "full"
		if selective {
			name = "selective"
		}
		b.Run(name, func(b *testing.B) {
			w := phoenix.StringMatch()
			tab := symtab.New()
			if err := w.RegisterSymbols(tab); err != nil {
				b.Fatal(err)
			}
			log, err := shmlog.New(1 << 23)
			if err != nil {
				b.Fatal(err)
			}
			var opts []probe.Option
			if selective {
				f, err := probe.NewFilter(tab, func(s symtab.Symbol) bool {
					return s.Name == "string_match"
				})
				if err != nil {
					b.Fatal(err)
				}
				opts = append(opts, probe.WithFilter(f))
			}
			rt, err := probe.New(log, counter.NewTSC(), opts...)
			if err != nil {
				b.Fatal(err)
			}
			encl, err := tee.NewEnclave(tee.SGXv1(), tee.NewHost(1))
			if err != nil {
				b.Fatal(err)
			}
			runner, err := w.New(phoenix.Config{Enclave: encl, Hooks: rt.Thread(), AddrOf: tab.Addr}, 1)
			if err != nil {
				b.Fatal(err)
			}
			th := encl.Thread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				log.Reset()
				if _, err := runner(th); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(log.Len()), "log-entries")
		})
	}
}

// --- Ablation A4: sampling-frequency bias ---

// BenchmarkAblationSamplingBias quantifies the perf failure mode TEE-Perf
// avoids: a workload phase-aligned with the sampling period is invisible
// to the sampler. Metric: percentage points of self time mis-attributed.
func BenchmarkAblationSamplingBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := perfbase.New()
		th := p.Thread(nil)
		const rounds = 5000
		for r := 0; r < rounds; r++ {
			th.Enter(0xA)
			p.SampleNow()
			th.Exit(0xA)
			th.Enter(0xB) // equally long, between samples
			th.Exit(0xB)
		}
		// True split is 50/50; the sampler sees 100/0.
		bias := (p.Fraction(0xA) - 0.5) * 100
		b.ReportMetric(bias, "misattribution-pp")
	}
}

// --- Ablation A5: log size sensitivity ---

// BenchmarkAblationLogSize runs word_count into logs of shrinking capacity
// and reports the drop rate plus the analyzer's ability to keep working on
// the truncated stream.
func BenchmarkAblationLogSize(b *testing.B) {
	for _, capacity := range []int{1 << 20, 1 << 16, 1 << 12} {
		b.Run(sizeName(capacity), func(b *testing.B) {
			w := phoenix.WordCount()
			tab := symtab.New()
			if err := w.RegisterSymbols(tab); err != nil {
				b.Fatal(err)
			}
			encl, err := tee.NewEnclave(tee.SGXv1(), tee.NewHost(1), tee.WithoutSpin())
			if err != nil {
				b.Fatal(err)
			}
			var dropped, entries float64
			for i := 0; i < b.N; i++ {
				log, err := shmlog.New(capacity)
				if err != nil {
					b.Fatal(err)
				}
				rt, err := probe.New(log, counter.NewVirtual(1))
				if err != nil {
					b.Fatal(err)
				}
				runner, err := w.New(phoenix.Config{Enclave: encl, Hooks: rt.Thread(), AddrOf: tab.Addr}, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := runner(encl.Thread()); err != nil {
					b.Fatal(err)
				}
				if _, err := analyzer.Analyze(log, tab); err != nil {
					b.Fatal(err)
				}
				dropped += float64(log.Dropped())
				entries += float64(log.Len())
			}
			b.ReportMetric(dropped/float64(b.N), "dropped")
			b.ReportMetric(entries/float64(b.N), "kept")
		})
	}
}

func sizeName(c int) string {
	switch c {
	case 1 << 20:
		return "1Mi"
	case 1 << 16:
		return "64Ki"
	default:
		return "4Ki"
	}
}

// --- Component micro-benchmarks ---

// BenchmarkProbePair is the cost of one instrumented function call: one
// enter plus one exit probe (the paper's injected-code overhead).
func BenchmarkProbePair(b *testing.B) {
	log, err := shmlog.New(2*b.N + 2)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := probe.New(log, counter.NewTSC())
	if err != nil {
		b.Fatal(err)
	}
	th := rt.Thread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Enter(0x400100)
		th.Exit(0x400100)
	}
}

// BenchmarkProbePairVirtual is BenchmarkProbePair on the Virtual counter
// (one fetch-and-add per read), which keeps runtime.nanotime out of the
// figure and leaves the probe's own reserve-and-commit path.
func BenchmarkProbePairVirtual(b *testing.B) {
	log, err := shmlog.New(2*b.N + 2)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := probe.New(log, counter.NewVirtual(1))
	if err != nil {
		b.Fatal(err)
	}
	th := rt.Thread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Enter(0x400100)
		th.Exit(0x400100)
	}
}

// BenchmarkPerfPublishPair is the perf baseline's per-call cost (leaf
// publication only), for comparison with BenchmarkProbePair.
func BenchmarkPerfPublishPair(b *testing.B) {
	p := perfbase.New()
	th := p.Thread(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Enter(0x400100)
		th.Exit(0x400100)
	}
}

// BenchmarkAnalyzer measures stage-3 throughput on a synthetic log.
func BenchmarkAnalyzer(b *testing.B) {
	const depth, pairs = 8, 1 << 16
	tab := symtab.New()
	addrs := make([]uint64, depth)
	for i := range addrs {
		addrs[i] = tab.MustRegister("fn"+string(rune('a'+i)), 16, "f.go", i)
	}
	log, err := shmlog.New(2 * depth * pairs)
	if err != nil {
		b.Fatal(err)
	}
	now := uint64(0)
	for p := 0; p < pairs; p++ {
		for d := 0; d < depth; d++ {
			now++
			_ = log.Append(shmlog.Entry{Kind: shmlog.KindCall, Counter: now, Addr: addrs[d], ThreadID: 1})
		}
		for d := depth - 1; d >= 0; d-- {
			now++
			_ = log.Append(shmlog.Entry{Kind: shmlog.KindReturn, Counter: now, Addr: addrs[d], ThreadID: 1})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.Analyze(log, tab); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(log.Len()), "entries")
}

// BenchmarkFlameGraphSVG measures stage-4 rendering.
func BenchmarkFlameGraphSVG(b *testing.B) {
	folded := make(map[string]uint64, 256)
	stack := "root"
	for i := 0; i < 256; i++ {
		stack += ";fn" + string(rune('a'+i%26))
		if len(stack) > 200 {
			stack = "root"
		}
		folded[stack] = uint64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flamegraph.RenderSVG(io.Discard, folded, flamegraph.SVGOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldRender measures stage 4 on a deep profile: WriteFolded plus
// RenderSVG over 30K seeded stacks of depth 3 to 12 whose frames share
// prefixes like a real call tree (the map internal/flamegraph's digest
// golden pins).
func BenchmarkFoldRender(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	names := make([]string, 60)
	for i := range names {
		names[i] = fmt.Sprintf("mod%d::fn_%02d", i%7, i)
	}
	names[5] = "std::vector<int>::push_back&"
	folded := make(map[string]uint64, 30000)
	var sb strings.Builder
	for len(folded) < 30000 {
		sb.Reset()
		depth := 3 + rng.Intn(10)
		for j := 0; j < depth; j++ {
			if j > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(names[rng.Intn(min(len(names), 4+4*j))])
		}
		folded[sb.String()] += 1 + uint64(rng.Intn(1000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := flamegraph.WriteFolded(io.Discard, folded); err != nil {
			b.Fatal(err)
		}
		if err := flamegraph.RenderSVG(io.Discard, folded, flamegraph.SVGOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(folded)), "stacks")
}

// BenchmarkQueryFilter measures the declarative query engine.
func BenchmarkQueryFilter(b *testing.B) {
	f, err := query.NewFrame("thread", "name", "self")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		_ = f.AppendRow(query.Int(int64(i%8)), query.Str("fn"+string(rune('a'+i%26))), query.Int(int64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := f.Filter(`thread == 3 && self > 5000 && name =~ "f"`)
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() == 0 {
			b.Fatal("filter matched nothing")
		}
	}
}

// BenchmarkRecorderSession measures the end-to-end Session fast path.
func BenchmarkRecorderSession(b *testing.B) {
	tab := symtab.New()
	fn := tab.MustRegister("hot", 16, "h.go", 1)
	rec, err := recorder.New(tab, recorder.WithCounterMode(recorder.CounterTSC), recorder.WithCapacity(2*b.N+16))
	if err != nil {
		b.Fatal(err)
	}
	if err := rec.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := rec.Stop(); err != nil {
			b.Fatal(err)
		}
	}()
	th := rec.Thread()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Enter(fn)
		th.Exit(fn)
	}
}

// --- Hot-path suite: batched reservation and bulk log I/O ---

// appendSlotBudget bounds the log of one benchAppendParallel round (48 MiB
// of entries). Sized for b.N instead, the s32 rows would allocate 32 slots
// per event — gigabytes at ordinary benchtimes.
const appendSlotBudget = 1 << 21

// benchAppendParallel records b.N probe events spread over a fixed number
// of goroutines, each with its own thread handle, reserving log slots in
// blocks of k in a log split into s per-thread tail shards. ns/op is
// therefore ns per event; the byte rate is event payload throughput. The
// events are recorded in rounds that each fit a log of at most
// appendSlotBudget slots; between rounds, with the timer stopped, the
// threads release their blocks and the log is reset.
func benchAppendParallel(b *testing.B, goroutines, batch, shards int) {
	counts := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		counts[i] = b.N / goroutines
	}
	counts[0] += b.N % goroutines
	// Sized so the fullest shard fits every thread that hashes onto it:
	// at most ceil(g/s) threads per shard, each reserving at most its
	// round share plus one partial batch.
	threadsPerShard := (goroutines + shards - 1) / shards
	round := min(counts[0], appendSlotBudget/(shards*threadsPerShard)-batch-1)
	log, err := shmlog.New(shards*threadsPerShard*(round+batch+1), shmlog.WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	rt, err := probe.New(log, counter.NewTSC(), probe.WithBatch(batch))
	if err != nil {
		b.Fatal(err)
	}
	threads := make([]*probe.Thread, goroutines)
	for i := range threads {
		threads[i] = rt.Thread()
	}

	b.SetBytes(shmlog.EntrySize)
	b.ResetTimer()
	for done := 0; done < counts[0]; done += round {
		if done > 0 {
			b.StopTimer()
			rt.Flush()
			log.Reset()
			b.StartTimer()
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(th *probe.Thread, n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					th.Enter(0x400100)
				}
			}(threads[g], min(counts[g]-done, round))
		}
		wg.Wait()
	}
	b.StopTimer()
	rt.Flush()
	if dropped := rt.Dropped(); dropped != 0 {
		b.Fatalf("%d events dropped — capacity sizing bug", dropped)
	}
}

// BenchmarkAppendParallel sweeps writer count against reservation batch
// size and shard count: the contended tail fetch-and-add is paid once per
// k events on one of s independent tail words, so batching should win
// where writers collide and sharding where they collide on the same word.
func BenchmarkAppendParallel(b *testing.B) {
	for _, goroutines := range []int{1, 4, 32} {
		for _, batch := range []int{1, 16, 64} {
			for _, shards := range []int{1, 8, 32} {
				b.Run(fmt.Sprintf("g%d/k%d/s%d", goroutines, batch, shards), func(b *testing.B) {
					benchAppendParallel(b, goroutines, batch, shards)
				})
			}
		}
	}
}

// benchAppendSampled is BenchmarkAppendParallel-style load (several
// goroutines, own thread handles) recording full call PAIRS under a sampling
// period: suppressed pairs skip the counter read and the reservation
// entirely, so ns/op (per pair) should fall steeply as the period grows.
// Period 0 runs the same pairs against an inactive log: every probe returns
// at the activation flag and nothing is recorded, so the log needs no room.
func benchAppendSampled(b *testing.B, goroutines int, period uint64) {
	// Sampling is deterministic — a thread records the call at tick t when
	// t%period == 0 — so a thread making n pairs records ceil(n/period).
	perThread := uint64(b.N/goroutines + b.N%goroutines)
	capacity := 64
	if period != 0 {
		capacity += goroutines * 2 * int((perThread+period-1)/period+2)
	}
	log, err := shmlog.New(capacity, shmlog.WithSamplePeriod(max(period, 1)))
	if err != nil {
		b.Fatal(err)
	}
	log.SetActive(period != 0)
	rt, err := probe.New(log, counter.NewTSC())
	if err != nil {
		b.Fatal(err)
	}
	threads := make([]*probe.Thread, goroutines)
	for i := range threads {
		threads[i] = rt.Thread()
	}
	counts := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		counts[i] = b.N / goroutines
	}
	counts[0] += b.N % goroutines

	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(th *probe.Thread, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				th.Enter(0x400100)
				th.Exit(0x400100)
			}
		}(threads[g], counts[g])
	}
	wg.Wait()
	b.StopTimer()
	rt.Flush()
	if dropped := rt.Dropped(); dropped != 0 {
		b.Fatalf("%d events dropped — capacity sizing bug", dropped)
	}
	b.ReportMetric(float64(rt.Masked()), "masked")
}

// BenchmarkAppendSampled sweeps the sampling period on a parallel pair
// workload; "off" is the same load with recording inactive. The bench gate
// holds p64 within a fixed multiple of off, so suppressed events must stay
// near the cost of a probe that records nothing.
func BenchmarkAppendSampled(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchAppendSampled(b, 4, 0)
	})
	for _, period := range []uint64{1, 8, 64} {
		b.Run(fmt.Sprintf("p%d", period), func(b *testing.B) {
			benchAppendSampled(b, 4, period)
		})
	}
}

// newFilledLog builds a committed log of exactly entries events.
func newFilledLog(b *testing.B, entries int) *shmlog.Log {
	b.Helper()
	log, err := shmlog.New(entries)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		kind := shmlog.KindCall
		if i%2 == 1 {
			kind = shmlog.KindReturn
		}
		if err := log.Append(shmlog.Entry{Kind: kind, Counter: uint64(i + 1), Addr: 0x400000 + uint64(i%64)*16, ThreadID: uint64(i%4) + 1}); err != nil {
			b.Fatal(err)
		}
	}
	return log
}

// BenchmarkLogWriteTo measures persisting a filled 1Mi-entry segment
// through the bulk encoder (MB/s of on-disk format produced).
func BenchmarkLogWriteTo(b *testing.B) {
	const entries = 1 << 20
	log := newFilledLog(b, entries)
	b.SetBytes(int64(shmlog.HeaderSize + entries*shmlog.EntrySize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogRead measures decoding the persisted format back into a log
// (MB/s of on-disk format consumed).
func BenchmarkLogRead(b *testing.B) {
	const entries = 1 << 20
	log := newFilledLog(b, entries)
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shmlog.Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogReadSharded is BenchmarkLogRead over an 8-shard log written
// by 8 batched threads taking turns event by event, so every segment
// interleaves blocks of several threads and the read-time counter merge
// has many short runs to combine.
func BenchmarkLogReadSharded(b *testing.B) {
	const entries, shards, threads, batch = 1 << 20, 8, 8, 32
	// Each segment may host every thread; leave room for skewed hashing.
	log, err := shmlog.New(shards*entries/2, shmlog.WithShards(shards))
	if err != nil {
		b.Fatal(err)
	}
	type block struct {
		slot uint64
		left int
	}
	blocks := make([]block, threads)
	for i := 0; i < entries; i++ {
		tid := uint64(i%threads) + 1
		blk := &blocks[tid-1]
		if blk.left == 0 {
			blk.slot, blk.left = log.ReserveShard(log.ShardOf(tid), batch)
			if blk.left == 0 {
				b.Fatal("segment full")
			}
		}
		kind := shmlog.KindCall
		if (i/threads)%2 == 1 {
			kind = shmlog.KindReturn
		}
		log.Commit(blk.slot, shmlog.Entry{Kind: kind, Counter: uint64(i + 1), Addr: 0x400000 + uint64(i%64)*16, ThreadID: tid})
		blk.slot++
		blk.left--
	}
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shmlog.Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzerParallel measures stage-3 throughput with the
// worker-pool analyzer on a multi-thread log, against the same log
// analyzed serially (the Parallelism=1 subbench).
func BenchmarkAnalyzerParallel(b *testing.B) {
	const depth, pairs, nthreads = 8, 1 << 13, 8
	tab := symtab.New()
	addrs := make([]uint64, depth)
	for i := range addrs {
		addrs[i] = tab.MustRegister("pfn"+string(rune('a'+i)), 16, "f.go", i)
	}
	log, err := shmlog.New(2 * depth * pairs * nthreads)
	if err != nil {
		b.Fatal(err)
	}
	now := uint64(0)
	for p := 0; p < pairs; p++ {
		for tid := uint64(1); tid <= nthreads; tid++ {
			for d := 0; d < depth; d++ {
				now++
				_ = log.Append(shmlog.Entry{Kind: shmlog.KindCall, Counter: now, Addr: addrs[d], ThreadID: tid})
			}
			for d := depth - 1; d >= 0; d-- {
				now++
				_ = log.Append(shmlog.Entry{Kind: shmlog.KindReturn, Counter: now, Addr: addrs[d], ThreadID: tid})
			}
		}
	}
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(log.Len() * shmlog.EntrySize))
			for i := 0; i < b.N; i++ {
				if _, err := analyzer.AnalyzeWith(log, tab, analyzer.Options{Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation A6: EPC paging cliff (the intro's motivation) ---

// BenchmarkAblationEPCPaging sweeps a random-access working set across the
// EPC boundary and reports the steady-state slowdown of the thrashing
// configuration (the paper's intro cites up to 2000x for EPC paging).
func BenchmarkAblationEPCPaging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunEPCSweep(experiments.EPCSweepConfig{
			EPCPages: 256,
			Touches:  20000,
		})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.Slowdown, "thrash-slowdown-x")
		b.ReportMetric(float64(last.PageFaults), "thrash-faults")
	}
}

// --- Generality: the same pipeline on every TEE platform ---

// BenchmarkGeneralityPlatforms runs one Phoenix workload under TEE-Perf on
// all six platform models with an identical pipeline (§II-A's generality
// goal) and reports each platform's runtime in milliseconds.
func BenchmarkGeneralityPlatforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunPlatformSweep("histogram", 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.Runtime)/1e6, r.Platform+"-ms")
		}
	}
}

// --- Accuracy: full tracing vs sampling ---

// BenchmarkAccuracyVsSampling reports the attribution error (percentage
// points from ground truth) of TEE-Perf, unbiased sampling, and
// phase-aligned sampling — the paper's accuracy argument quantified.
func BenchmarkAccuracyVsSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAccuracy(0.7, 3000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*abs(res.TEEPerfShare-res.TruthShare), "teeperf-error-pp")
		b.ReportMetric(100*abs(res.PerfShare-res.TruthShare), "perf-error-pp")
		b.ReportMetric(100*abs(res.AlignedPerfShare-res.TruthShare), "perf-aligned-error-pp")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
