package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"teeperf/internal/agent"
	"teeperf/internal/counter"
	"teeperf/internal/flamegraph"
	"teeperf/internal/probe"
	"teeperf/internal/profilestore"
	"teeperf/internal/symtab"
)

// fleetSpec sizes the fleet workload.
type fleetSpec struct {
	sessions   int    // shared-memory sessions
	bursts     int    // bursts per cycle, one scrape each
	nativeReps int    // native passes over a burst per timed native run
	span       uint64 // query window width in counter ticks
	queries    int    // queries between two ingests, each on its own window
	shape      shape
}

func newFleetSpec(tiny bool) fleetSpec {
	fs := fleetSpec{
		sessions: 16, bursts: 16, nativeReps: 6,
		queries: 3,
		shape: shape{
			prefix: "fleet", funcs: 512, callees: 3, roots: 32,
			treeCalls: 64, spine: 3, maxDepth: 12, work: 16,
		},
	}
	// The first scrape after a session is re-registered interns every
	// stack afresh and costs about twice a later one; with 16 bursts it is
	// one scrape in 16, so scrape_p90_ms lies among the steady scrapes
	// rather than on the edge between the two kinds.
	callsPerBurst := 1024
	if tiny {
		fs.sessions, fs.bursts, fs.nativeReps = 4, 2, 1
		callsPerBurst = 128
	}
	fs.shape.calls = fs.sessions * fs.bursts * callsPerBurst
	// A window spans one round of bursts (one tick per entry, two entries
	// per call), so wherever it lies it covers one burst of every session
	// ingested so far and its cost does not depend on where the seed puts it.
	fs.span = uint64(fs.sessions * callsPerBurst * 2)
	return fs
}

// fleet is sixteen shared-memory sessions of one application, each
// running its own slice of a generated program in bursts. The agent
// scrapes every session between bursts; at the end of a cycle each
// session's mapping is rotated out (re-registered at a fresh file), its
// log reported and ingested as a segment with inline compaction, and
// windowed queries run on that store between the ingests.
type fleet struct {
	fs   fleetSpec
	dir  string
	tab  *symtab.Table
	prog *program
	src  *counter.Virtual
	ag   *agent.Agent

	// windows[i] are the queries run between the i-th and the next ingest
	// of a cycle, with the answers the first i+1 segments give. Query cost
	// grows with each ingested segment; with queries in the 15 gaps between
	// 16 ingests, the median falls inside one gap's queries rather than
	// between two gaps' extremes.
	windows [][]window
	cycle   int
	want    string
	lastSt  *profilestore.Store
	lastDir string
	last    []byte // the last cycle's merged report folded output
	faults  faults
}

func newFleet(dir string, fs fleetSpec, seed uint64, fl faults) (*fleet, error) {
	f := &fleet{fs: fs, dir: dir, tab: symtab.New(), src: counter.NewVirtual(1), faults: fl}
	f.prog = generate(fs.shape, seed)
	if err := f.prog.register(f.tab); err != nil {
		return nil, err
	}
	f.prog.bind(func(name string) uint64 { return f.tab.Addr(name) })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Record one cycle's bursts of every session and ingest them in cycle
	// order, fixing the windows queried between the ingests and their answers.
	sessions, err := f.openSessions(filepath.Join(dir, "setup"), nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range sessions {
			s.close()
		}
	}()
	for b := 0; b < fs.bursts; b++ {
		for i, s := range sessions {
			f.runBurst(s.hooks, i, b)
		}
	}
	st, err := profilestore.Open(filepath.Join(dir, "setup-store"), profilestore.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	rng := seed ^ 0x5bd1e995
	for i, s := range sessions[:len(sessions)-1] {
		s.rec.Stop()
		if _, err := ingestSegment(st, s.rec.Log(), f.tab, fmt.Sprintf("setup-%d", i), nil); err != nil {
			return nil, err
		}
		w, err := pickWindows(st, fs.queries, fs.span, &rng)
		if err != nil {
			return nil, err
		}
		f.windows = append(f.windows, w)
	}
	f.ag = agent.New(agent.Config{ScrapeBudget: 1 << 30})
	return f, nil
}

// trees returns session i's tree range for burst b.
func (f *fleet) trees(i, b int) (int, int) {
	n := f.prog.numTrees()
	k := i*f.fs.bursts + b
	parts := f.fs.sessions * f.fs.bursts
	return k * n / parts, (k + 1) * n / parts
}

func (f *fleet) runBurst(hooks []probe.Hooks, i, b int) uint64 {
	from, to := f.trees(i, b)
	return f.prog.run(hooks, from, to)
}

// openSessions creates one fresh mapping per session under dir. With an
// agent, each session is (re-)registered under its stable name and
// attached.
func (f *fleet) openSessions(dir string, ag *agent.Agent) ([]*session, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Every op is one event. Burst ranges differ by at most one tree, so
	// session 0's largest burst plus one tree bounds every session's.
	var perBurst int32
	for b := 0; b < f.fs.bursts; b++ {
		from, to := f.trees(0, b)
		perBurst = max(perBurst, f.prog.trees[to]-f.prog.trees[from])
	}
	sp := soloSpec{threads: 1, shards: 1, period: 1, liveCap: f.fs.bursts*int(perBurst+f.prog.trees[1]) + 64}
	out := make([]*session, 0, f.fs.sessions)
	for i := 0; i < f.fs.sessions; i++ {
		s, err := openSession(filepath.Join(dir, fmt.Sprintf("s%02d.shm", i)), f.tab, f.src, sp, ag)
		if err != nil {
			for _, o := range out {
				o.close()
			}
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// runCycle records every session in bursts, each beside its native twin
// and followed by a scrape, as one native/instrumented pair; then
// every session is rotated out — its log reported and ingested as a
// segment into a fresh store, with queries on that store between ingests.
// The store's folded output must equal the sum of the reports'.
func (f *fleet) runCycle(r *results, tr *tracer) error {
	f.cycle++
	dir := filepath.Join(f.dir, fmt.Sprintf("cycle%d", f.cycle))
	st, err := profilestore.Open(filepath.Join(dir, "store"), profilestore.Options{})
	if err != nil {
		return err
	}
	if f.lastSt != nil {
		f.lastSt.Close()
		os.RemoveAll(f.lastDir)
	}
	f.lastSt, f.lastDir = st, dir
	sessions, err := f.openSessions(filepath.Join(dir, "spool"), f.ag)
	if err != nil {
		return err
	}
	defer func() {
		for _, s := range sessions {
			s.close()
		}
	}()

	// Each burst is timed beside its native twin, in an order that
	// alternates burst by burst: this host's speed drifts within a second,
	// and pairing burst by burst lets the drift cancel.
	var natSum, instSum uint64
	var natNS, instNS int64
	nop := []probe.Hooks{probe.Nop{}}
	for b := 0; b < f.fs.bursts; b++ {
		native := func() {
			t0 := threadCPU()
			for k := 0; k < f.fs.nativeReps; k++ {
				for i := range sessions {
					if sum := f.runBurst(nop, i, b); k == 0 {
						natSum += sum
					}
				}
			}
			natNS += threadCPU() - t0
		}
		instFirst := (f.cycle+b)%2 == 0
		if !instFirst {
			native()
		}
		before := 0
		for _, s := range sessions {
			before += s.rec.Log().Len()
		}
		t0 := threadCPU()
		for i, s := range sessions {
			instSum += f.runBurst(s.hooks, i, b)
		}
		instNS += threadCPU() - t0
		after := 0
		for _, s := range sessions {
			after += s.rec.Log().Len()
		}
		if instFirst {
			native()
		}
		runScrape(f.ag, after-before, r)
	}
	if f.faults.perturbChecksum {
		instSum++
	}
	var recorded int64
	var dropped uint64
	for _, s := range sessions {
		s.rec.Stop()
		st := s.rec.Stats()
		recorded += int64(st.Entries)
		dropped += st.Dropped
	}
	err = checkf(instSum == natSum, "instrumented checksum %x != native %x", instSum, natSum)
	if err == nil {
		err = checkf(dropped == 0, "%d events dropped", dropped)
	}
	r.op(err)
	perNative := float64(natNS) / float64(f.fs.nativeReps)
	r.sample(&r.overhead, float64(instNS)/perNative)
	if !r.warm {
		r.probeNS += float64(instNS) - perNative
		r.probeEvents += float64(recorded)
		r.recorded += recorded
		r.dropped += dropped
	}

	// Rotate every session out: report them all, then ingest each as a
	// segment with queries between the ingests. Each ingest starts from a
	// collected heap, so garbage the queries leave is not charged to it.
	// A failed report ends the cycle: the queries' answers assume every
	// segment.
	var repCost cost
	var ingestCPU int64
	merged := make(map[string]uint64)
	reps := make([]report, 0, len(sessions))
	for i, s := range sessions {
		sdir := filepath.Join(dir, fmt.Sprintf("s%02d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return err
		}
		rep, ok := doReport(sdir, f.tab, s.rec.Log(), tr, f.faults.corruptBundle, (f.cycle+i)%2 == 0, r)
		if !ok {
			return nil
		}
		repCost.cpu += rep.cost.cpu
		repCost.alloc += rep.cost.alloc
		for k, v := range rep.foldedMap {
			merged[k] += v
		}
		reps = append(reps, rep)
	}
	for i, rep := range reps {
		runtime.GC()
		in, err := ingestSegment(st, rep.log, rep.tab, fmt.Sprintf("s%02d@%d", i, f.cycle), tr)
		if r.op(err) {
			ingestCPU += in.cost.cpu
			if !r.warm {
				r.ingestEntries += int64(in.entries)
			}
		}
		if i < len(f.windows) {
			for _, w := range f.windows[i] {
				runQuery(st, w, r)
			}
		}
	}
	r.sample(&r.reportCPU, float64(repCost.cpu)/1e9)
	r.sample(&r.reportAlloc, float64(repCost.alloc)/1e6)
	r.sample(&r.ingestCPU, float64(ingestCPU)/1e9)

	var buf bytes.Buffer
	if err := flamegraph.WriteFolded(&buf, merged); err != nil {
		return err
	}
	r.op(repeats(&f.want, buf.Bytes()))
	if r.warm {
		r.op(conformance(st, buf.Bytes()))
	}
	f.last = buf.Bytes()
	return nil
}

func (f *fleet) finish(r *results) error {
	if f.lastSt == nil {
		r.op(fmt.Errorf("no cycle completed its report"))
		return nil
	}
	r.op(conformance(f.lastSt, f.last))
	return storeFootprint(f.lastSt, r)
}

func (f *fleet) close() {
	if f.lastSt != nil {
		f.lastSt.Close()
	}
	if f.ag != nil {
		f.ag.Close()
	}
}
