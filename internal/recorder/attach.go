// Cross-process hosting: the recorder-process end of the attach protocol.
//
// The paper's Stage 2 recorder is a native wrapper process sharing a memory
// region with the TEE. Create builds that region as a file-backed mmap log
// and returns a recorder hosting it: the software counter thread, periodic
// checkpointing and the live monitor all run here, in the recorder process,
// while the instrumented application (spawned with the TEEPERF_SHM
// environment variable, see SharedEnv) opens the same file and appends
// events from its own address space. Attach re-hosts an existing mapping —
// a recorder process (re)started after the region already exists.
//
// Symbols cross the process boundary through a side file next to the
// mapping (SymsPath): the application writes its table once its probes are
// registered, and the host installs it with Recorder.SetTable before
// persisting.
package recorder

import (
	"errors"
	"fmt"
	"os"
	"time"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// SharedEnv is the environment variable carrying the shared-mapping path
// from `teeperf run` to the instrumented child process. rt and the Session
// facade attach automatically when it is set.
const SharedEnv = "TEEPERF_SHM"

// Create makes a new file-backed shared log at path and returns a recorder
// hosting it: its counter thread targets the mapping, its Start sets the
// recorder-ready handshake bit, and its table (empty unless WithTable) is
// meant to be replaced via SetTable once the application has written its
// symbol side file. Returns shmlog.ErrMmapUnsupported on platforms without
// shared mappings.
func Create(path string, opts ...Option) (*Recorder, error) {
	cfg := hostConfig(opts)
	log, err := shmlog.CreateFile(path, cfg.capacity,
		shmlog.WithPID(cfg.pid),
		shmlog.WithShards(cfg.logShards()),
		shmlog.WithSamplePeriod(cfg.samplePeriod),
		shmlog.WithFlags(shmlog.EventCall|shmlog.EventReturn), // inactive until Start
	)
	if err != nil {
		return nil, fmt.Errorf("recorder: create shared log: %w", err)
	}
	return finishHost(log, cfg)
}

// Attach re-hosts an existing file-backed shared log — a recorder process
// adopting a mapping some earlier process created. The counter thread and
// checkpointing run here from now on.
func Attach(path string, opts ...Option) (*Recorder, error) {
	cfg := hostConfig(opts)
	log, err := shmlog.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("recorder: attach shared log: %w", err)
	}
	return finishHost(log, cfg)
}

func hostConfig(opts []Option) config {
	cfg := config{capacity: 1 << 20}
	for _, opt := range opts {
		opt.apply(&cfg)
	}
	return cfg
}

func finishHost(log *shmlog.Log, cfg config) (*Recorder, error) {
	tab := cfg.table
	if tab == nil {
		tab = symtab.New()
	}
	r, err := newRecorder(tab, log, cfg, true)
	if err != nil {
		log.Close()
		return nil, err
	}
	return r, nil
}

// SymsPath returns the symbol side-file path convention for a shared
// mapping: the mapping path plus ".syms".
func SymsPath(shmPath string) string { return shmPath + ".syms" }

// WriteSymsFile persists tab to path atomically (tmp + rename), so a host
// polling for the file never reads a torn table.
func WriteSymsFile(path string, tab *symtab.Table) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("recorder: create syms side file: %w", err)
	}
	if _, err := tab.WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("recorder: write syms side file: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("recorder: sync syms side file: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("recorder: close syms side file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("recorder: publish syms side file: %w", err)
	}
	return nil
}

// SymsLoader incrementally adopts a symbol side file: Load returns a fresh
// table only when the file appeared or was republished since the previous
// successful call, so pollers (the `teeperf run` wrapper, the fleet
// agent's per-session scrape) re-parse the table once per publication
// instead of once per poll.
type SymsLoader struct {
	path string
	seen os.FileInfo // the publication last adopted (nil before the first)
}

// NewSymsLoader watches the side file of the shared mapping at shmPath.
func NewSymsLoader(shmPath string) *SymsLoader {
	return &SymsLoader{path: SymsPath(shmPath)}
}

// Path returns the watched side-file path.
func (s *SymsLoader) Path() string { return s.path }

// Load returns the freshly parsed table and true when the side file is a
// different file (WriteSymsFile renames a fresh one in per publication) or
// has a newer modification time than at the last successful Load; otherwise
// (missing file, unchanged file, parse error on a torn concurrent write)
// it returns nil and false. The identity check catches a republication
// within one mtime tick of a coarse-timestamp filesystem.
func (s *SymsLoader) Load() (*symtab.Table, bool) {
	st, err := os.Stat(s.path)
	if err != nil {
		return nil, false
	}
	if s.seen != nil && os.SameFile(st, s.seen) && !st.ModTime().After(s.seen.ModTime()) {
		return nil, false
	}
	tab, err := ReadSymsFile(s.path)
	if err != nil {
		return nil, false
	}
	s.seen = st
	return tab, true
}

// WatchSyms launches a background poller that installs each fresh
// publication of the shared mapping's symbol side file into the recorder
// via SetTable, so mid-run checkpoints and live monitors resolve names
// instead of raw addresses. The returned stop function halts the poller,
// performs one final unconditional read (the application may publish right
// before exiting), and returns that read's error — except os.ErrNotExist,
// which just means the application never published.
func (r *Recorder) WatchSyms(shmPath string, interval time.Duration) (stop func() error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	loader := NewSymsLoader(shmPath)
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
			}
			if tab, ok := loader.Load(); ok {
				r.SetTable(tab)
			}
		}
	}()
	return func() error {
		close(stopCh)
		<-done
		tab, err := ReadSymsFile(loader.Path())
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		r.SetTable(tab)
		return nil
	}
}

// ReadSymsFile loads the application's symbol table from its side file.
// A missing file returns os.ErrNotExist (the application has not published
// yet).
func ReadSymsFile(path string) (*symtab.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("recorder: open syms side file: %w", err)
	}
	defer f.Close()
	tab, err := symtab.Read(f)
	if err != nil {
		return nil, fmt.Errorf("recorder: read syms side file %s: %w", path, err)
	}
	return tab, nil
}
