package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"teeperf/internal/agent"
	"teeperf/internal/counter"
	"teeperf/internal/probe"
	"teeperf/internal/profilestore"
	"teeperf/internal/recorder"
	"teeperf/internal/stress"
	"teeperf/internal/symtab"
)

// soloSpec sizes a workload recorded by one in-process recorder (storm,
// calltree).
type soloSpec struct {
	threads    int    // probe threads one goroutine drives round-robin
	shards     int    // log shards
	period     uint64 // sampling period (1 records every call pair)
	capacity   int    // log entries; one body must fit without drops
	nativeReps int    // native bodies per timed native run
	pairs      int    // measured native/instrumented pairs per cycle
	span       uint64 // query window width in counter ticks
	queries    int    // queries per cycle after its ingest, each on its own window
	bursts     int    // live-session bursts per cycle, one scrape each
	liveCap    int    // live-session mapping entries

	symbols func(tab *symtab.Table) error
	// bind returns the full body and the b-th of n live bursts, both on
	// hooks (one per probe thread) at the addresses addrOf resolves.
	bind func(addrOf func(string) uint64, hooks []probe.Hooks) (full func() uint64, burst func(b, n int) uint64, err error)
}

// stormSpec: the stress storm personality, every call pair recorded by one
// probe thread into one shard of a heap log.
func stormSpec(seed uint64, tiny bool) soloSpec {
	iters, burstIters := 1<<19, 1<<14
	sp := soloSpec{
		threads: 1, shards: 1, period: 1,
		nativeReps: 16, pairs: 3,
		span: 1 << 14, queries: 48,
		bursts: 24,
	}
	if tiny {
		iters, burstIters = 1<<12, 1<<9
		sp.nativeReps, sp.pairs, sp.span, sp.queries, sp.bursts = 2, 1, 1<<8, 2, 2
	}
	sp.capacity = 2*(iters+iters/256) + 64
	sp.liveCap = sp.bursts*2*(burstIters+burstIters/256) + 64
	storm := stress.Storm()
	sp.symbols = storm.RegisterSymbols
	sp.bind = func(addrOf func(string) uint64, hooks []probe.Hooks) (func() uint64, func(b, n int) uint64, error) {
		full, err := storm.New(stress.Config{Hooks: hooks[0], AddrOf: addrOf}, storm.Tuning(stress.Tuning{Iterations: iters, Seed: seed}, false))
		if err != nil {
			return nil, nil, err
		}
		burst, err := storm.New(stress.Config{Hooks: hooks[0], AddrOf: addrOf}, storm.Tuning(stress.Tuning{Iterations: burstIters, Seed: seed}, false))
		if err != nil {
			return nil, nil, err
		}
		return mustRun(full), func(int, int) uint64 { return mustRun(burst)() }, nil
	}
	return sp
}

// mustRun adapts a stress runner; the storm personality never fails.
func mustRun(run stress.Runner) func() uint64 {
	return func() uint64 {
		sum, err := run()
		if err != nil {
			panic(err)
		}
		return sum
	}
}

// calltreeShape: a few thousand functions, stacks tens of frames deep.
var calltreeShape = shape{
	prefix: "calltree", funcs: 3000, callees: 6, roots: 64,
	calls: 1 << 20, treeCalls: 512, spine: 12, maxDepth: 48, work: 2,
}

// calltreeSpec: a seeded random call tree driven round-robin through eight
// probe threads into eight shards, recording one call pair in eight.
func calltreeSpec(seed uint64, tiny bool) soloSpec {
	sh := calltreeShape
	sp := soloSpec{
		threads: 8, shards: 8, period: 8,
		nativeReps: 2, pairs: 3,
		span: 1 << 12, queries: 48,
		bursts: 24,
	}
	if tiny {
		sh.calls, sh.funcs = 1<<12, 300
		sp.nativeReps, sp.pairs, sp.span, sp.queries, sp.bursts = 1, 1, 1<<7, 2, 2
	}
	prog := generate(sh, seed)
	// The sampled entry count depends on the stacks; bound it by every
	// event, split over the shards with room for imbalance.
	sp.capacity = 2*prog.calls/int(sp.period)*2 + 64*sp.shards
	sp.liveCap = sp.capacity
	sp.symbols = prog.register
	sp.bind = func(addrOf func(string) uint64, hooks []probe.Hooks) (func() uint64, func(b, n int) uint64, error) {
		prog.bind(addrOf)
		trees := prog.numTrees()
		full := func() uint64 { return prog.run(hooks, 0, trees) }
		burst := func(b, n int) uint64 { return prog.run(hooks, b*trees/n, (b+1)*trees/n) }
		return full, burst, nil
	}
	return sp
}

// solo is a storm or calltree session: one recorder whose log is reset
// before every instrumented body, a fresh store per cycle that ingests the
// body and then answers windowed queries, and an agent scraping a live
// shared-memory session per cycle.
type solo struct {
	sp      soloSpec
	dir     string
	tab     *symtab.Table
	rec     *recorder.Recorder
	threads []*probe.Thread
	native  func() uint64
	inst    func() uint64

	windows []window
	ag      *agent.Agent
	liveSrc *counter.Virtual

	cycle   int
	pair    int
	want    string // folded digest every cycle must reproduce
	last    report // the last cycle's report and store, for the closing
	lastSt  *profilestore.Store
	lastDir string
	faults  faults
}

func newSolo(dir string, sp soloSpec, seed uint64, fl faults) (*solo, error) {
	s := &solo{sp: sp, dir: dir, tab: symtab.New(), faults: fl, liveSrc: counter.NewVirtual(1)}
	if err := sp.symbols(s.tab); err != nil {
		return nil, err
	}
	rec, err := recorder.New(s.tab,
		recorder.WithCounterSource(counter.NewVirtual(1)),
		recorder.WithCapacity(sp.capacity),
		recorder.WithShards(sp.shards),
		recorder.WithSamplePeriod(sp.period))
	if err != nil {
		return nil, err
	}
	s.rec = rec
	hooks := make([]probe.Hooks, sp.threads)
	for i := range hooks {
		th := rec.Thread()
		s.threads = append(s.threads, th)
		hooks[i] = th
	}
	if s.inst, _, err = sp.bind(rec.AddrOf, hooks); err != nil {
		return nil, err
	}
	if s.native, _, err = sp.bind(rec.AddrOf, []probe.Hooks{probe.Nop{}}); err != nil {
		return nil, err
	}
	if err := rec.Start(); err != nil {
		return nil, err
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Fix the query windows and their answers on a store holding one body,
	// as every cycle's store will.
	st, err := profilestore.Open(filepath.Join(dir, "setup-store"), profilestore.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	s.recordBody()
	if _, err := ingestSegment(st, rec.Log(), s.tab, "setup", nil); err != nil {
		return nil, err
	}
	rng := seed ^ 0x5bd1e995
	if s.windows, err = pickWindows(st, sp.queries, sp.span, &rng); err != nil {
		return nil, err
	}
	s.ag = agent.New(agent.Config{ScrapeBudget: 1 << 30})
	return s, nil
}

// recordBody records one instrumented body into the reset log and returns
// its checksum and the workload thread's CPU nanoseconds.
func (s *solo) recordBody() (uint64, int64) {
	s.rec.Log().Reset()
	t0 := threadCPU()
	sum := s.inst()
	ns := threadCPU() - t0
	for _, th := range s.threads {
		th.Flush()
	}
	return sum, ns
}

// runPair times one native and one instrumented body on the workload
// thread, in the order given, and checks they computed the same checksum
// without dropping an event.
func (s *solo) runPair(instFirst bool, r *results) {
	var natSum, instSum uint64
	var natNS, instNS int64
	masked0 := s.rec.Stats().Masked
	native := func() {
		t0 := threadCPU()
		for i := 0; i < s.sp.nativeReps; i++ {
			natSum = s.native()
		}
		natNS = threadCPU() - t0
	}
	if !instFirst {
		native()
	}
	instSum, instNS = s.recordBody()
	if instFirst {
		native()
	}
	if s.faults.perturbChecksum {
		instSum++
	}
	st := s.rec.Stats()
	recorded, masked := int64(st.Entries), int64(st.Masked-masked0)
	err := checkf(instSum == natSum, "instrumented checksum %x != native %x", instSum, natSum)
	if err == nil {
		err = checkf(st.Dropped == 0, "%d events dropped", st.Dropped)
	}
	r.op(err)
	perNative := float64(natNS) / float64(s.sp.nativeReps)
	r.sample(&r.overhead, float64(instNS)/perNative)
	if !r.warm {
		r.probeNS += float64(instNS) - perNative
		r.probeEvents += float64(recorded + masked)
		r.recorded += recorded
		r.masked += masked
		r.dropped += st.Dropped
	}
}

func (s *solo) runCycle(r *results, tr *tracer) error {
	s.cycle++
	for i := 0; i < s.sp.pairs; i++ {
		s.runPair(s.pair%2 == 1, r)
		s.pair++
	}

	// Report the last instrumented body, then ingest it into a fresh
	// store: the report's folded output must equal the store's.
	cdir := filepath.Join(s.dir, fmt.Sprintf("cycle%d", s.cycle))
	if err := os.MkdirAll(cdir, 0o755); err != nil {
		return err
	}
	rep, ok := doReport(cdir, s.tab, s.rec.Log(), tr, s.faults.corruptBundle, s.cycle%2 == 0, r)
	if !ok {
		return nil
	}
	r.sample(&r.reportCPU, float64(rep.cost.cpu)/1e9)
	r.sample(&r.reportAlloc, float64(rep.cost.alloc)/1e6)
	r.op(repeats(&s.want, rep.folded))
	st, err := profilestore.Open(filepath.Join(cdir, "store"), profilestore.Options{})
	if err != nil {
		return err
	}
	runtime.GC()
	in, err := ingestSegment(st, rep.log, rep.tab, "segment", tr)
	if r.op(err) {
		r.sample(&r.ingestCPU, float64(in.cost.cpu)/1e9)
		if !r.warm {
			r.ingestEntries += int64(in.entries)
		}
	}
	if r.warm {
		r.op(conformance(st, rep.folded))
	}
	s.keepLast(rep, st, cdir)

	// Each query has a window of its own: repeating windows would split
	// the samples into cold first reads and cached repeats, and put a
	// percentile on the edge between the two.
	for _, w := range s.windows {
		runQuery(st, w, r)
	}
	return s.liveBursts(r)
}

// keepLast retains this cycle's report and store for the closing checks,
// releasing the previous cycle's.
func (s *solo) keepLast(rep report, st *profilestore.Store, dir string) {
	if s.lastSt != nil {
		s.lastSt.Close()
		os.RemoveAll(s.lastDir)
	}
	s.last, s.lastSt, s.lastDir = rep, st, dir
}

// liveBursts records bursts into a fresh shared-memory session and has the
// agent drain each one.
func (s *solo) liveBursts(r *results) error {
	dir := filepath.Join(s.dir, fmt.Sprintf("live%d", s.cycle))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sess, err := openSession(filepath.Join(dir, "live.shm"), s.tab, s.liveSrc, s.sp, s.ag)
	if err != nil {
		return err
	}
	defer sess.close()
	_, burst, err := s.sp.bind(sess.rec.AddrOf, sess.hooks)
	if err != nil {
		return err
	}
	runtime.GC()
	for b := 0; b < s.sp.bursts; b++ {
		before := sess.rec.Log().Len()
		burst(b, s.sp.bursts)
		runScrape(s.ag, sess.rec.Log().Len()-before, r)
	}
	return nil
}

// finish runs the closing conformance check on the last cycle.
func (s *solo) finish(r *results) error {
	if s.lastSt == nil {
		r.op(fmt.Errorf("no cycle completed its report"))
		return nil
	}
	r.op(conformance(s.lastSt, s.last.folded))
	return storeFootprint(s.lastSt, r)
}

func (s *solo) close() {
	if s.lastSt != nil {
		s.lastSt.Close()
	}
	s.ag.Close()
	s.rec.Stop()
}
