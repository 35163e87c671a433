package profilestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"teeperf/internal/faultinject"
	"teeperf/internal/recorder"
	"teeperf/internal/runmerge"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// symsName is the store-wide symbol side file: the union of every ingested
// segment's symbols (first registration of a name wins), in the same
// TEESYM1 format the recorder publishes, so symtab.Read loads it back.
const symsName = "symbols.teesym"

// Options parameterizes a Store. The zero value means defaults.
type Options struct {
	// BlockEntries is the number of entries per table block (default 512).
	BlockEntries int
	// CacheBlocks bounds the LRU block cache, in blocks (default 256).
	CacheBlocks int
	// Fanout is the leveled compaction trigger: when a level holds this
	// many tables of one session shape, they merge into the next level
	// (default 4).
	Fanout int
	// Injector is the fault injector the persistence steps consult
	// (default faultinject.Default — disabled).
	Injector *faultinject.Injector
}

func (o Options) withDefaults() Options {
	if o.BlockEntries <= 0 {
		o.BlockEntries = 512
	}
	if o.CacheBlocks <= 0 {
		o.CacheBlocks = 256
	}
	if o.Fanout < 2 {
		o.Fanout = 4
	}
	if o.Injector == nil {
		o.Injector = faultinject.Default
	}
	return o
}

// OpenReport is the structured account of everything open had to repair or
// discard: the recovery half of the crash-consistency contract. A store
// that went down mid-commit reopens with CurrentFallback or swept leftovers
// here — never with silent loss of an acknowledged segment.
type OpenReport struct {
	// ManifestSeq is the committed manifest the store loaded (0 = fresh).
	ManifestSeq uint64 `json:"manifest_seq"`
	// CurrentFallback is set when CURRENT was missing, torn, or dangling
	// and the store fell back to the newest manifest that validates.
	CurrentFallback bool `json:"current_fallback,omitempty"`
	// Corruption describes every invalid file encountered while resolving
	// the committed manifest.
	Corruption []string `json:"corruption,omitempty"`
	// DroppedTables lists manifest-referenced tables that failed
	// validation and were dropped from view (data loss, reported).
	DroppedTables []string `json:"dropped_tables,omitempty"`
	// SweptTemp, SweptOrphans and SweptManifests list the uncommitted
	// leftovers removed: .tmp files, unreferenced tables, and manifests
	// other than the committed one.
	SweptTemp      []string `json:"swept_temp,omitempty"`
	SweptOrphans   []string `json:"swept_orphans,omitempty"`
	SweptManifests []string `json:"swept_manifests,omitempty"`
	// SymsError reports a damaged symbol side file (the store still opens;
	// unresolvable addresses render as hex).
	SymsError string `json:"syms_error,omitempty"`
}

// Clean reports whether open found nothing to repair.
func (r OpenReport) Clean() bool {
	return !r.CurrentFallback && len(r.Corruption) == 0 && len(r.DroppedTables) == 0 &&
		len(r.SweptTemp) == 0 && len(r.SweptOrphans) == 0 && len(r.SweptManifests) == 0 &&
		r.SymsError == ""
}

// Stats is the store's observable state, exported as monitor gauges.
type Stats struct {
	Tables      int
	Levels      int
	Entries     uint64
	Segments    int
	Backlog     int
	Compactions uint64
	CacheLen    int
	CacheCap    int
	CacheHits   uint64
	CacheMisses uint64
}

// HitRate returns the cache hit fraction in [0,1] (0 before any read).
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// IngestResult is one segment's ingestion outcome.
type IngestResult struct {
	// Segment is the segment ID ingested (or found duplicate).
	Segment string
	// Duplicate is set when the segment was already acknowledged; the
	// store is unchanged and TableSeq names the table holding it.
	Duplicate bool
	// TableSeq is the table holding the segment's entries.
	TableSeq uint64
	// Entries is the committed entry count persisted (0 for duplicates).
	Entries int
}

// Store is the profile history store over one directory. All methods are
// safe for concurrent use; mutations (ingest, compaction) serialize, reads
// snapshot.
type Store struct {
	dir string
	opt Options
	inj *faultinject.Injector

	// wmu serializes mutations end to end (table write → manifest commit →
	// state swap); mu guards the in-memory view readers snapshot.
	wmu sync.Mutex
	mu  sync.RWMutex

	man     *manifest
	tables  map[uint64]*Table
	retired []*Table // compacted-away readers, closed at Close (snapshots may still read them)
	syms    map[string]symtab.Symbol
	tab     *symtab.Table
	report  OpenReport
	closed  bool

	compactions uint64
	cache       *blockCache

	crun  bool
	cstop chan struct{}
	cdone chan struct{}
}

// Open loads (or initializes) the store in dir: resolve the committed
// manifest (falling back past a torn CURRENT), validate every referenced
// table, sweep uncommitted leftovers, and load the symbol union. The
// repairs performed are available via Report.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, rep, err := readCurrent(dir)
	if err != nil {
		return nil, err
	}

	s := &Store{
		dir:    dir,
		opt:    opt,
		inj:    opt.Injector,
		man:    man,
		tables: make(map[uint64]*Table, len(man.Tables)),
		syms:   make(map[string]symtab.Symbol),
		report: *rep,
		cache:  newBlockCache(opt.CacheBlocks),
	}

	// Validate every referenced table; drop (and report) what fails.
	live := man.Tables[:0]
	for _, tm := range man.Tables {
		t, terr := OpenTable(filepath.Join(dir, tm.File))
		if terr == nil && t.Info() != tm.info() {
			t.Close()
			terr = fmt.Errorf("%w: footer does not match manifest", ErrBadTable)
		}
		if terr != nil {
			s.report.DroppedTables = append(s.report.DroppedTables,
				fmt.Sprintf("%s: %v", tm.File, terr))
			continue
		}
		s.tables[tm.Seq] = t
		live = append(live, tm)
	}
	man.Tables = live

	s.sweep()
	s.loadSyms()
	return s, nil
}

// sweep removes uncommitted leftovers: .tmp files, table files the
// committed manifest does not reference, and manifests other than the
// committed one. Everything removed is reported.
func (s *Store) sweep() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	referenced := make(map[string]bool, len(s.man.Tables))
	for _, tm := range s.man.Tables {
		referenced[tm.File] = true
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasSuffix(name, ".tmp"):
			if os.Remove(filepath.Join(s.dir, name)) == nil {
				s.report.SweptTemp = append(s.report.SweptTemp, name)
			}
		case strings.HasPrefix(name, "tbl-") && !referenced[name]:
			if os.Remove(filepath.Join(s.dir, name)) == nil {
				s.report.SweptOrphans = append(s.report.SweptOrphans, name)
			}
		default:
			if seq, ok := manifestSeq(name); ok && (s.man.Seq == 0 || seq != s.man.Seq) {
				if os.Remove(filepath.Join(s.dir, name)) == nil {
					s.report.SweptManifests = append(s.report.SweptManifests, name)
				}
			}
		}
	}
}

// loadSyms loads the store-wide symbol union (absence is normal).
func (s *Store) loadSyms() {
	data, err := os.ReadFile(filepath.Join(s.dir, symsName))
	if os.IsNotExist(err) {
		return
	}
	if err != nil {
		s.report.SymsError = err.Error()
		return
	}
	tab, err := symtab.Read(bytes.NewReader(data))
	if err != nil {
		s.report.SymsError = err.Error()
		return
	}
	s.tab = tab
	for _, sym := range tab.Symbols() {
		s.syms[sym.Name] = sym
	}
}

// Report returns the structured account of what open repaired.
func (s *Store) Report() OpenReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.report
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Segments returns every acknowledged segment ID mapped to the table seq
// currently holding its entries.
func (s *Store) Segments() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.man.segments()
}

// Bounds returns the counter window covered by the store (ok=false when it
// holds no entries).
func (s *Store) Bounds() (min, max uint64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, tm := range s.man.Tables {
		if tm.Entries == 0 {
			continue
		}
		if !ok || tm.MinCounter < min {
			min = tm.MinCounter
		}
		if !ok || tm.MaxCounter > max {
			max = tm.MaxCounter
		}
		ok = true
	}
	return min, max, ok
}

// Tables returns the live table records, sorted by (MinCounter, Seq).
func (s *Store) Tables() []TableMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]TableMeta, len(s.man.Tables))
	copy(out, s.man.Tables)
	sortTables(out)
	return out
}

// sortTables orders table records by (MinCounter, Seq): time-window order
// with ingestion order breaking ties, the merge order both compaction and
// queries use.
func sortTables(tms []TableMeta) {
	sort.Slice(tms, func(i, j int) bool {
		if tms[i].MinCounter != tms[j].MinCounter {
			return tms[i].MinCounter < tms[j].MinCounter
		}
		return tms[i].Seq < tms[j].Seq
	})
}

func entryCounter(e *shmlog.Entry) uint64 { return e.Counter }

// Stats snapshots the store gauges.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Tables:      len(s.man.Tables),
		Segments:    len(s.man.segments()),
		Compactions: s.compactions,
		Backlog:     s.backlogLocked(),
	}
	maxLevel := -1
	for _, tm := range s.man.Tables {
		st.Entries += tm.Entries
		if tm.Level > maxLevel {
			maxLevel = tm.Level
		}
	}
	st.Levels = maxLevel + 1
	st.CacheLen, st.CacheCap, st.CacheHits, st.CacheMisses = s.cache.stats()
	return st
}

// IngestLog persists one finished segment's committed entries as a new L0
// table and acknowledges it under segmentID. Ingesting an acknowledged ID
// again is a reported no-op (exactly-once), so replaying a spool after a
// crash is safe. tab may be nil (agent-salvaged sessions without a symbol
// side file); addresses then render as hex in query output.
//
// The return is an acknowledgment: when err is nil the segment is durably
// committed (CURRENT repointed). A kill anywhere before that leaves the
// previous state committed and this segment un-acknowledged.
func (s *Store) IngestLog(log *shmlog.Log, tab *symtab.Table, segmentID string) (IngestResult, error) {
	if log == nil {
		return IngestResult{}, fmt.Errorf("profilestore: nil log")
	}
	if segmentID == "" {
		return IngestResult{}, fmt.Errorf("profilestore: empty segment ID")
	}
	// Blocks must be counter-ordered for the index to prune windows. A log
	// already in counter order (a merged multi-segment bundle, or any
	// unbatched recording) passes through after one scan; batched blocks
	// are merged as a stable sort by counter would order them. Per-thread
	// order — the analyzer's only ordering dependency — survives because
	// each thread's counters are nondecreasing in reader order.
	entries := runmerge.Sorted(log.CommittedEntries(), entryCounter)

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.isClosed() {
		return IngestResult{}, fmt.Errorf("profilestore: store closed")
	}
	if seq, ok := s.Segments()[segmentID]; ok {
		return IngestResult{Segment: segmentID, Duplicate: true, TableSeq: seq}, nil
	}

	seq := s.man.NextTable
	meta := TableMeta{
		File:         tableName(seq),
		Seq:          seq,
		Level:        0,
		PID:          log.PID(),
		ProfilerAddr: log.ProfilerAddr(),
		SamplePeriod: normPeriod(log.SamplePeriod()),
		Segments:     []string{segmentID},
	}
	info, err := writeTable(filepath.Join(s.dir, meta.File), entries,
		meta.PID, meta.ProfilerAddr, meta.SamplePeriod, s.opt.BlockEntries, s.inj)
	if err != nil {
		return IngestResult{}, fmt.Errorf("profilestore: write table: %w", err)
	}
	meta.Entries = info.Entries
	meta.MinCounter = info.MinCounter
	meta.MaxCounter = info.MaxCounter

	if err := s.mergeSyms(tab); err != nil {
		os.Remove(filepath.Join(s.dir, meta.File))
		return IngestResult{}, fmt.Errorf("profilestore: persist symbols: %w", err)
	}

	next := s.cloneManifest()
	next.Seq++
	next.NextTable++
	next.Tables = append(next.Tables, meta)
	if err := writeManifest(s.dir, next, s.inj); err != nil {
		os.Remove(filepath.Join(s.dir, meta.File))
		return IngestResult{}, fmt.Errorf("profilestore: commit manifest: %w", err)
	}

	reader, err := OpenTable(filepath.Join(s.dir, meta.File))
	if err != nil {
		// Committed but unreadable: surface it rather than hold broken state.
		return IngestResult{}, fmt.Errorf("profilestore: reopen committed table: %w", err)
	}
	prevSeq := s.swapState(next, map[uint64]*Table{seq: reader}, nil)
	s.gc(prevSeq, nil)
	return IngestResult{Segment: segmentID, TableSeq: seq, Entries: len(entries)}, nil
}

// IngestBundle reads a profile bundle (a rotated/checkpointed segment as
// recorder.PersistSegment writes it) and ingests it under segmentID; an
// empty segmentID defaults to the file's basename.
func (s *Store) IngestBundle(path, segmentID string) (IngestResult, error) {
	if segmentID == "" {
		segmentID = filepath.Base(path)
	}
	tab, log, err := recorder.ReadBundleFile(path)
	if err != nil {
		return IngestResult{}, err
	}
	return s.IngestLog(log, tab, segmentID)
}

// normPeriod maps the header's 0 (never set) to the analyzer's 1.
func normPeriod(p uint64) uint64 {
	if p == 0 {
		return 1
	}
	return p
}

// cloneManifest deep-copies the committed manifest for mutation.
func (s *Store) cloneManifest() *manifest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	next := &manifest{
		Format:    s.man.Format,
		Seq:       s.man.Seq,
		NextTable: s.man.NextTable,
		Tables:    make([]TableMeta, len(s.man.Tables)),
	}
	copy(next.Tables, s.man.Tables)
	return next
}

// swapState installs the committed manifest and table-reader changes,
// returning the previous manifest seq (for GC). Readers holding snapshots
// of retired tables keep their open file handles; the files themselves may
// be unlinked underneath them, which POSIX allows.
func (s *Store) swapState(next *manifest, add map[uint64]*Table, retire []uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.man.Seq
	s.man = next
	for seq, t := range add {
		s.tables[seq] = t
	}
	for _, seq := range retire {
		if t, ok := s.tables[seq]; ok {
			s.retired = append(s.retired, t)
			delete(s.tables, seq)
		}
		s.cache.drop(seq)
	}
	return prev
}

// gc removes files superseded by a commit: the previous manifest and any
// compacted-away tables. Best effort — a kill here leaves orphans the next
// open sweeps (and reports); an injected failure skips the pass.
func (s *Store) gc(prevManifestSeq uint64, tableFiles []string) {
	if err := s.inj.Hit(faultinject.StoreGC); err != nil {
		return
	}
	if prevManifestSeq != 0 {
		os.Remove(filepath.Join(s.dir, manifestName(prevManifestSeq)))
	}
	for _, f := range tableFiles {
		os.Remove(filepath.Join(s.dir, f))
	}
}

// mergeSyms folds tab's symbols into the store union and, when anything
// new arrived, durably rewrites the side file (tmp→fsync→rename) before
// the manifest commit that will reference the addresses.
func (s *Store) mergeSyms(tab *symtab.Table) error {
	if tab == nil {
		return nil
	}
	changed := false
	for _, sym := range tab.Symbols() {
		if _, ok := s.syms[sym.Name]; !ok {
			s.syms[sym.Name] = sym
			changed = true
		}
	}
	if !changed {
		return nil
	}
	list := make([]symtab.Symbol, 0, len(s.syms))
	for _, sym := range s.syms {
		list = append(list, sym)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].Addr != list[j].Addr {
			return list[i].Addr < list[j].Addr
		}
		return list[i].Name < list[j].Name
	})
	var buf bytes.Buffer
	buf.WriteString("TEESYM1\n")
	for _, sym := range list {
		fmt.Fprintf(&buf, "%x\t%d\t%s:%d\t%s\n", sym.Addr, sym.Size, sym.File, sym.Line, sym.Name)
	}
	merged, err := symtab.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}

	tmp := filepath.Join(s.dir, symsName+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if err := syncFile(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, symsName)); err != nil {
		os.Remove(tmp)
		return err
	}
	s.mu.Lock()
	s.tab = merged
	s.mu.Unlock()
	return nil
}

// readBlock serves one block through the LRU cache.
func (s *Store) readBlock(t *Table, seq uint64, i int) ([]shmlog.Entry, error) {
	if blk, ok := s.cache.get(seq, i); ok {
		return blk, nil
	}
	blk, err := t.ReadBlock(i)
	if err != nil {
		return nil, err
	}
	s.cache.put(seq, i, blk)
	return blk, nil
}

func (s *Store) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Close stops the background compactor and releases every table reader.
func (s *Store) Close() error {
	s.StopCompactor()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, t := range s.tables {
		t.Close()
	}
	for _, t := range s.retired {
		t.Close()
	}
	return nil
}
