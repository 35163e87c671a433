package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"teeperf/internal/agent"
	"teeperf/internal/analyzer"
	"teeperf/internal/counter"
	"teeperf/internal/flamegraph"
	"teeperf/internal/probe"
	"teeperf/internal/profilestore"
	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// report is one offline report: a persisted bundle turned into folded
// stacks and a flame graph.
type report struct {
	cost      cost
	bytes     int64  // persisted bundle size
	folded    []byte // flamegraph.WriteFolded output
	foldedMap map[string]uint64
	entries   int // entries the analyzer read
	stacks    int // distinct folded stacks
	unmatched int
	truncated int
	tab       *symtab.Table // read back from the bundle
	log       *shmlog.Log   // read back from the bundle
}

// runReport persists log with tab as a bundle under dir, reads it back,
// analyzes it and writes the folded stacks and the SVG flame graph, timing
// the whole span in process CPU time and allocated bytes. With a tracer,
// the bundle step is composed from the calls recorder.WriteBundle and
// recorder.ReadBundle make, so persist and read get spans of their own;
// the caller checks the traced bundle is byte-identical to the untraced
// one. corrupt flips bytes of the persisted log section, for the
// self-tests.
func runReport(dir string, tab *symtab.Table, log *shmlog.Log, tr *tracer, corrupt bool) (report, error) {
	bundle := filepath.Join(dir, "run.teeperf")
	start := now()
	end := tr.span("report")
	r, prof, err := buildReport(dir, bundle, tab, log, tr, corrupt)
	end()
	r.cost = since(start)
	if err != nil {
		return r, err
	}
	fi, err := os.Stat(bundle)
	if err != nil {
		return r, err
	}
	r.bytes = fi.Size()
	r.entries = r.log.Len()
	r.stacks = len(r.foldedMap)
	r.unmatched = prof.Unmatched
	r.truncated = prof.Truncated
	return r, nil
}

// buildReport is the timed body of runReport.
func buildReport(dir, bundle string, tab *symtab.Table, log *shmlog.Log, tr *tracer, corrupt bool) (report, *analyzer.Profile, error) {
	var r report
	var err error
	if tr == nil {
		err = writeBundleFile(bundle, tab, log)
	} else {
		err = tracedWriteBundle(bundle, tab, log, tr)
	}
	if err == nil && corrupt {
		err = corruptLog(bundle)
	}
	if err != nil {
		return r, nil, err
	}
	if tr == nil {
		r.tab, r.log, err = recorder.ReadBundleFile(bundle)
	} else {
		r.tab, r.log, err = tracedReadBundle(bundle, tr)
	}
	if err != nil {
		return r, nil, fmt.Errorf("read bundle: %w", err)
	}

	endA := tr.span("analyzer")
	prof, err := analyzer.Analyze(r.log, r.tab)
	endA()
	if err != nil {
		return r, nil, fmt.Errorf("analyze: %w", err)
	}

	endF := tr.span("flamegraph.fold")
	r.foldedMap = prof.Folded()
	var buf bytes.Buffer
	err = flamegraph.WriteFolded(&buf, r.foldedMap)
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "run.folded"), buf.Bytes(), 0o644)
	}
	endF()
	if err != nil {
		return r, nil, fmt.Errorf("fold: %w", err)
	}
	r.folded = buf.Bytes()

	endS := tr.span("flamegraph.svg")
	err = writeSVG(filepath.Join(dir, "run.svg"), r.foldedMap)
	endS()
	return r, prof, err
}

func writeBundleFile(path string, tab *symtab.Table, log *shmlog.Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := recorder.WriteBundle(f, tab, log); err != nil {
		f.Close()
		return fmt.Errorf("write bundle: %w", err)
	}
	return f.Close()
}

func writeSVG(path string, folded map[string]uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := flamegraph.RenderSVG(f, folded, flamegraph.SVGOptions{Title: "perfbench"}); err != nil {
		f.Close()
		return fmt.Errorf("render svg: %w", err)
	}
	return f.Close()
}

// The bundle layout recorder.WriteBundle documents: a header line, then a
// symbol section and a log section, each introduced by its byte length.
const bundleHeader = "TEEPERF-BUNDLE 1\n"

// tracedWriteBundle writes the same bytes as recorder.WriteBundle, with
// the log encoding (shmlog's persist path) in a span of its own.
func tracedWriteBundle(path string, tab *symtab.Table, log *shmlog.Log, tr *tracer) error {
	var syms, body bytes.Buffer
	if _, err := tab.WriteTo(&syms); err != nil {
		return err
	}
	endP := tr.span("shmlog.persist")
	_, err := log.WriteTo(&body)
	endP()
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "%ssection syms %d\n", bundleHeader, syms.Len())
	bw.Write(syms.Bytes())
	fmt.Fprintf(bw, "section log %d\n", body.Len())
	bw.Write(body.Bytes())
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedReadBundle decodes a bundle as recorder.ReadBundleFile does, with
// the log decode and shard merge (shmlog.Read) in a span of its own.
func tracedReadBundle(path string, tr *tracer) (*symtab.Table, *shmlog.Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	syms, body, err := bundleSections(data)
	if err != nil {
		return nil, nil, err
	}
	tab, err := symtab.Read(bytes.NewReader(syms))
	if err != nil {
		return nil, nil, err
	}
	endR := tr.span("shmlog.read")
	log, err := shmlog.Read(bytes.NewReader(body))
	endR()
	return tab, log, err
}

// bundleSections splits a bundle into its symbol and log sections.
func bundleSections(data []byte) (syms, body []byte, err error) {
	rest, ok := bytes.CutPrefix(data, []byte(bundleHeader))
	if !ok {
		return nil, nil, fmt.Errorf("bad bundle header")
	}
	var sections [2][]byte
	for i, name := range []string{"syms", "log"} {
		line, after, ok := bytes.Cut(rest, []byte("\n"))
		var n int
		if !ok {
			return nil, nil, fmt.Errorf("bundle: missing %s section", name)
		}
		if _, err := fmt.Sscanf(string(line), "section "+name+" %d", &n); err != nil || n < 0 || n > len(after) {
			return nil, nil, fmt.Errorf("bundle: bad %s section header %q", name, line)
		}
		sections[i], rest = after[:n], after[n:]
	}
	return sections[0], sections[1], nil
}

// corruptLog overwrites the log section of a bundle past its header with
// a pattern no committed entry can hold, the way a torn write or a flipped
// page would.
func corruptLog(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, body, err := bundleSections(data)
	if err != nil {
		return err
	}
	off := len(data) - len(body) + shmlog.HeaderSize + shmlog.SegHeaderSize
	for i := off; i < off+4*shmlog.EntrySize && i < len(data); i++ {
		data[i] = 0xa5
	}
	return os.WriteFile(path, data, 0o644)
}

// digest is the hex SHA-256 of folded output.
func digest(folded []byte) string {
	sum := sha256.Sum256(folded)
	return hex.EncodeToString(sum[:])
}

// repeats checks folded output has the digest of the first cycle's, which
// it records in *want.
func repeats(want *string, folded []byte) error {
	d := digest(folded)
	if *want == "" {
		*want = d
	}
	return checkf(d == *want, "folded digest %s differs from the first cycle's %s", d[:12], (*want)[:12])
}

// ingested is what one ingest cost and stored.
type ingested struct {
	cost    cost
	entries int
}

// ingestSegment adds one finished segment to the store and runs inline
// compaction until nothing is eligible, timing both in process CPU time.
func ingestSegment(st *profilestore.Store, log *shmlog.Log, tab *symtab.Table, id string, tr *tracer) (ingested, error) {
	start := now()
	end := tr.span("ingest")
	n, err := ingestAndCompact(st, log, tab, id, tr)
	end()
	return ingested{cost: since(start), entries: n}, err
}

func ingestAndCompact(st *profilestore.Store, log *shmlog.Log, tab *symtab.Table, id string, tr *tracer) (int, error) {
	endI := tr.span("profilestore.ingest")
	res, err := st.IngestLog(log, tab, id)
	endI()
	if err != nil {
		return 0, fmt.Errorf("ingest %s: %w", id, err)
	}
	if res.Duplicate {
		return 0, fmt.Errorf("ingest %s: reported duplicate", id)
	}
	defer tr.span("profilestore.compact")()
	for {
		ran, err := st.MaybeCompact()
		if err != nil {
			return 0, fmt.Errorf("compact: %w", err)
		}
		if !ran {
			return res.Entries, nil
		}
	}
}

// storeFolded returns the folded output of a store window, as bytes
// comparable with a report's.
func storeFolded(st *profilestore.Store, from, to uint64) ([]byte, error) {
	prof, err := st.Profile(profilestore.AllThreads, from, to)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = flamegraph.WriteFolded(&buf, prof.Folded())
	return buf.Bytes(), err
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n, nil
}

// A window is one time-travel query and the answer it must keep giving.
// It lies at an offset from the store's lowest counter: every cycle records
// the same tick deltas on the Virtual counter, so one offset finds the same
// entries in every cycle's store.
type window struct {
	off, span uint64
	ticks     uint64 // profile TotalTicks, fixed at set-up
	entries   int    // entries the query analyzes
}

// pickWindows places n windows of span ticks inside the store's bounds,
// drawing from rng, and runs each once to fix its expected answer.
func pickWindows(st *profilestore.Store, n int, span uint64, rng *uint64) ([]window, error) {
	lo, hi, ok := st.Bounds()
	if !ok || hi-lo <= span {
		return nil, fmt.Errorf("store bounds [%d, %d] too narrow for %d-tick windows", lo, hi, span)
	}
	out := make([]window, n)
	for i := range out {
		w := window{off: splitmix64(rng) % (hi - lo - span), span: span}
		prof, err := st.Profile(profilestore.AllThreads, lo+w.off, lo+w.off+span)
		if err != nil {
			return nil, err
		}
		w.ticks = prof.TotalTicks
		for _, t := range prof.Threads() {
			w.entries += t.Events
		}
		out[i] = w
	}
	return out, nil
}

// session is one live shared-memory recording the agent observes.
type session struct {
	rec   *recorder.Recorder
	hooks []probe.Hooks
}

// openSession creates a shared mapping at path hosted by a recorder on
// src and publishes its symbols. With an agent, it registers the session
// and lets the agent attach before any event is recorded.
func openSession(path string, tab *symtab.Table, src counter.Source, sp soloSpec, ag *agent.Agent) (*session, error) {
	rec, err := recorder.Create(path,
		recorder.WithCounterSource(src),
		recorder.WithCapacity(sp.liveCap),
		recorder.WithShards(sp.shards),
		recorder.WithSamplePeriod(sp.period),
		recorder.WithTable(tab))
	if err != nil {
		return nil, err
	}
	if err := recorder.WriteSymsFile(recorder.SymsPath(path), tab); err != nil {
		rec.Log().Close()
		return nil, err
	}
	s := &session{rec: rec}
	for i := 0; i < sp.threads; i++ {
		s.hooks = append(s.hooks, rec.Thread())
	}
	if err := rec.Start(); err != nil {
		s.close()
		return nil, err
	}
	if ag == nil {
		return s, nil
	}
	ag.Register(path)
	if n := ag.ScrapeOnce(); n != 0 {
		s.close()
		return nil, fmt.Errorf("attach scrape drained %d entries from an empty session", n)
	}
	return s, nil
}

func (s *session) close() {
	s.rec.Stop()
	s.rec.Log().Close()
}

// doReport runs the report on log and checks it: it reproduces every
// call without an unmatched return or a force-closed frame. In a traced
// run it also runs the traced twin, in alternating order, whose bundle and
// folded output must be byte-identical to the plain one's.
func doReport(dir string, tab *symtab.Table, log *shmlog.Log, tr *tracer, corrupt, tracedFirst bool, r *results) (report, bool) {
	// Each report starts from a collected heap, so neither pays for the
	// garbage of the stage before it.
	traced := func() (report, error) {
		tdir := filepath.Join(dir, "traced")
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return report{}, err
		}
		runtime.GC()
		return runReport(tdir, tab, log, tr, corrupt)
	}
	var trep report
	var terr error
	if tr != nil && tracedFirst {
		trep, terr = traced()
	}
	runtime.GC()
	rep, err := runReport(dir, tab, log, nil, corrupt)
	if tr != nil && !tracedFirst {
		trep, terr = traced()
	}
	if err == nil {
		err = checkf(rep.unmatched == 0 && rep.truncated == 0 && rep.entries > 0,
			"report: %d entries, %d unmatched returns, %d truncated frames", rep.entries, rep.unmatched, rep.truncated)
	}
	if err == nil && tr != nil {
		err = terr
		if err == nil {
			err = sameBundle(dir, filepath.Join(dir, "traced"), rep, trep)
		}
	}
	if !r.op(err) {
		return rep, false
	}
	if !r.warm {
		r.bundleBytes += rep.bytes
		r.bundleEvents += int64(rep.entries)
		r.reports++
		r.reportEntries += int64(rep.entries)
		r.stacks += int64(rep.stacks)
		r.unmatched += int64(rep.unmatched)
		r.truncated += int64(rep.truncated)
		if tr != nil {
			r.tracedReport = append(r.tracedReport, float64(trep.cost.cpu)/1e9)
			r.plainReport = append(r.plainReport, float64(rep.cost.cpu)/1e9)
		}
	}
	return rep, true
}

// sameBundle checks the traced report wrote the same bundle and folded
// output as recorder.WriteBundle and the plain report.
func sameBundle(dir, tdir string, rep, trep report) error {
	a, err := os.ReadFile(filepath.Join(dir, "run.teeperf"))
	if err != nil {
		return err
	}
	b, err := os.ReadFile(filepath.Join(tdir, "run.teeperf"))
	if err != nil {
		return err
	}
	return checkf(bytes.Equal(a, b) && bytes.Equal(rep.folded, trep.folded),
		"traced report differs from the plain one (bundle %d vs %d bytes)", len(a), len(b))
}

// conformance checks the store's full-window folded output equals the
// reports' for the same segments.
func conformance(st *profilestore.Store, folded []byte) error {
	got, err := storeFolded(st, 0, profilestore.FullWindow)
	if err != nil {
		return err
	}
	return checkf(bytes.Equal(got, folded), "store folded output (%d bytes, %s) differs from the report's (%d bytes, %s)",
		len(got), digest(got)[:12], len(folded), digest(folded)[:12])
}

// storeFootprint records the compacted store's size per entry, table
// count and block-cache hit ratio.
func storeFootprint(st *profilestore.Store, r *results) error {
	n, err := dirBytes(st.Dir())
	if err != nil {
		return err
	}
	stats := st.Stats()
	r.storeBytes, r.storeEntries, r.tables = n, int64(stats.Entries), stats.Tables
	r.cacheHitRatio = stats.HitRate()
	return nil
}

// runQuery runs one windowed query, checks it against its set-up answer
// and records its process CPU time. The heap is collected first, so the
// query pays for the garbage it makes and no other's.
func runQuery(st *profilestore.Store, w window, r *results) {
	lo, _, _ := st.Bounds()
	runtime.GC()
	c0 := processCPU()
	prof, err := st.Profile(profilestore.AllThreads, lo+w.off, lo+w.off+w.span)
	ms := float64(processCPU()-c0) / 1e6
	if err == nil && prof.TotalTicks != w.ticks {
		err = fmt.Errorf("window +%d: %d ticks, want %d", w.off, prof.TotalTicks, w.ticks)
	}
	if r.op(err) {
		r.sample(&r.queryMS, ms)
		if !r.warm {
			r.queryEntries += int64(w.entries)
		}
	}
}

// runScrape runs one agent cycle, checks it drained exactly want entries
// and records its process CPU time.
func runScrape(ag *agent.Agent, want int, r *results) {
	c0 := processCPU()
	got := ag.ScrapeOnce()
	ms := float64(processCPU()-c0) / 1e6
	if r.op(checkf(got == want, "scrape drained %d entries, want %d", got, want)) {
		r.sample(&r.scrapeMS, ms)
		if !r.warm {
			r.drained += int64(want)
		}
	}
}
