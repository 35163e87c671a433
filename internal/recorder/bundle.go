package recorder

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"teeperf/internal/faultinject"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// A profile bundle packages the two artifacts a measurement produces — the
// symbol side file (stage 1 output) and the binary log (stage 2 output) —
// into one stream the analyzer consumes. Format:
//
//	TEEPERF-BUNDLE 1\n
//	section syms <byte length>\n
//	<symbol side file bytes>
//	section log <byte length>\n
//	<binary log bytes>
const bundleHeader = "TEEPERF-BUNDLE 1"

// ErrBadBundle is returned when decoding a malformed bundle.
var ErrBadBundle = errors.New("recorder: bad bundle")

// WriteBundle serializes the symbol table and log to w.
func WriteBundle(w io.Writer, tab *symtab.Table, log *shmlog.Log) error {
	if tab == nil || log == nil {
		return errors.New("recorder: nil table or log")
	}
	var syms, logBuf bytes.Buffer
	if _, err := tab.WriteTo(&syms); err != nil {
		return fmt.Errorf("recorder: encode symbols: %w", err)
	}
	if _, err := log.WriteTo(&logBuf); err != nil {
		return fmt.Errorf("recorder: encode log: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s\n", bundleHeader); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "section syms %d\n", syms.Len()); err != nil {
		return err
	}
	if _, err := bw.Write(syms.Bytes()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "section log %d\n", logBuf.Len()); err != nil {
		return err
	}
	if _, err := bw.Write(logBuf.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteBundleFile writes the symbol table and log as a bundle file at path,
// crash-safely like writeBundleFile, but through a fresh uniquely named
// temporary file rather than <path>.part: the input `teeperf recover`
// salvages is often that very .part file, and it must stay untouched until
// the clean bundle is committed. A failed write removes its temporary.
func WriteBundleFile(path string, tab *symtab.Table, log *shmlog.Log) error {
	inj := faultinject.Default
	if err := inj.Hit(faultinject.CheckpointBegin); err != nil {
		return fmt.Errorf("recorder: write %s: %w", path, err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.part")
	if err != nil {
		return fmt.Errorf("recorder: create temporary for %s: %w", path, err)
	}
	// CreateTemp makes the file 0600; give the bundle os.Create's usual mode.
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("recorder: chmod %s: %w", f.Name(), err)
	}
	if _, err := commitBundleFile(inj, f, path, tab, log); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// writeBundleFile is how the recorder writes every bundle file: create
// <path>.part, stream the bundle through the (normally no-op)
// fault-injecting writer, fsync, close and atomically rename onto <path>.
// The rename is the commit point, so a crash at any instant leaves <path>
// as it was — the previous complete bundle, or nothing — and at worst a
// torn <path>.part that ReadBundleLenient salvages. Each step boundary is a
// registered faultinject.Checkpoint* point. It returns the bundle bytes
// written (meaningful on success).
func writeBundleFile(inj *faultinject.Injector, path string, tab *symtab.Table, log *shmlog.Log) (uint64, error) {
	if err := inj.Hit(faultinject.CheckpointBegin); err != nil {
		return 0, fmt.Errorf("recorder: write %s: %w", path, err)
	}
	f, err := os.Create(path + ".part")
	if err != nil {
		return 0, fmt.Errorf("recorder: create %s.part: %w", path, err)
	}
	return commitBundleFile(inj, f, path, tab, log)
}

// commitBundleFile streams the bundle into the freshly created temporary f,
// then fsyncs, closes and renames it onto path and fsyncs path's directory,
// so the rename itself survives a power loss. It hits the Checkpoint* fault
// points between the steps. f is closed on every return.
func commitBundleFile(inj *faultinject.Injector, f *os.File, path string, tab *symtab.Table, log *shmlog.Log) (uint64, error) {
	part := f.Name()
	// An armed CheckpointWrite point can shorten, fail, delay or kill any
	// individual Write; a disabled injector adds one atomic load per
	// Write. The counting wrapper feeds CheckpointStats.BytesWritten.
	cw := &countingWriter{w: inj.Writer(f, faultinject.CheckpointWrite)}
	if err := WriteBundle(cw, tab, log); err != nil {
		f.Close()
		return 0, fmt.Errorf("recorder: write %s: %w", part, err)
	}
	if err := inj.Hit(faultinject.CheckpointBeforeSync); err != nil {
		f.Close()
		return 0, fmt.Errorf("recorder: write %s: %w", part, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("recorder: sync %s: %w", part, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("recorder: close %s: %w", part, err)
	}
	if err := inj.Hit(faultinject.CheckpointBeforeRename); err != nil {
		return 0, fmt.Errorf("recorder: write %s: %w", path, err)
	}
	if err := os.Rename(part, path); err != nil {
		return 0, fmt.Errorf("recorder: rename %s: %w", part, err)
	}
	SyncDir(filepath.Dir(path))
	if err := inj.Hit(faultinject.CheckpointAfterRename); err != nil {
		return 0, fmt.Errorf("recorder: write %s: %w", path, err)
	}
	return cw.n, nil
}

// SyncDir best-effort fsyncs a directory so renames into it are durable;
// some filesystems refuse, which is not worth failing a commit over. The
// profile history store commits its files through it too.
func SyncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
}

// countingWriter tallies bytes accepted by the wrapped writer.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

// ReadBundle decodes a bundle written by WriteBundle.
func ReadBundle(r io.Reader) (*symtab.Table, *shmlog.Log, error) {
	return readBundle(r, -1)
}

// readBundle decodes a bundle from a stream of size bytes, or of unknown
// size when size is negative.
func readBundle(r io.Reader, size int64) (*symtab.Table, *shmlog.Log, error) {
	br := bufio.NewReader(r)
	header, err := readLine(br)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: header: %v", ErrBadBundle, err)
	}
	if header != bundleHeader {
		return nil, nil, fmt.Errorf("%w: header %q", ErrBadBundle, header)
	}

	symBytes, err := readSection(br, "syms", size)
	if err != nil {
		return nil, nil, err
	}
	tab, err := symtab.Read(bytes.NewReader(symBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: symbols: %v", ErrBadBundle, err)
	}

	logBytes, err := readSection(br, "log", size)
	if err != nil {
		return nil, nil, err
	}
	log, err := shmlog.Read(bytes.NewReader(logBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: log: %v", ErrBadBundle, err)
	}
	return tab, log, nil
}

// ReadBundleFile decodes a bundle from a file path.
func ReadBundleFile(path string) (*symtab.Table, *shmlog.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("recorder: open bundle: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("recorder: stat bundle: %w", err)
	}
	return readBundle(f, fi.Size())
}

// ReadBundleLenient decodes a possibly torn bundle (e.g. a .part file a
// killed checkpoint pass left behind), salvaging as much of the log as
// shmlog.ReadLenient can recover and reporting the damage instead of
// failing. The symbol section is written first and is small, so it is
// almost always intact; a bundle torn before the symbols end is
// unrecoverable (there is no log after it to salvage) and returns an
// error. A bundle torn anywhere inside the log section salvages the
// committed prefix.
func ReadBundleLenient(r io.Reader) (*symtab.Table, *shmlog.Log, *shmlog.RecoveryReport, error) {
	br := bufio.NewReader(r)
	header, err := readLine(br)
	if err != nil || header != bundleHeader {
		return nil, nil, nil, fmt.Errorf("%w: unrecoverable: no bundle header", ErrBadBundle)
	}
	symBytes, err := readSection(br, "syms", -1)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: unrecoverable: torn before the log section", ErrBadBundle)
	}
	tab, err := symtab.Read(bytes.NewReader(symBytes))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: symbols: %v", ErrBadBundle, err)
	}
	// The log section header may itself be torn; whatever follows it (or
	// nothing at all) goes through the lenient log reader. The declared
	// section length is deliberately ignored: for a torn file it promises
	// more bytes than exist, and the lenient reader's own header/commit
	// invariants bound what is trusted.
	if line, err := readLine(br); err != nil || !strings.HasPrefix(line, "section log ") {
		log, rep, lerr := shmlog.ReadLenient(bytes.NewReader(nil))
		return tab, log, rep, lerr
	}
	log, rep, err := shmlog.ReadLenient(br)
	return tab, log, rep, err
}

// sectionChunk caps the buffer readSection allocates before any section
// bytes arrive from a stream of unknown size; past it, the buffer grows
// with the data.
const sectionChunk = 64 << 10

// readSection reads one section of a stream of size bytes (negative when
// unknown). A declared length is only a claim: it is checked against a
// known size before anything is allocated, and otherwise the buffer grows
// with the bytes that actually arrive, so a forged length fails at the end
// of the stream instead of allocating what it promises.
func readSection(br *bufio.Reader, want string, size int64) ([]byte, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("%w: section header: %v", ErrBadBundle, err)
	}
	fields := strings.Fields(line)
	if len(fields) != 3 || fields[0] != "section" || fields[1] != want {
		return nil, fmt.Errorf("%w: want section %q, got %q", ErrBadBundle, want, line)
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: section length %q", ErrBadBundle, fields[2])
	}
	const maxSection = 1 << 31
	if n > maxSection || size >= 0 && int64(n) > size {
		return nil, fmt.Errorf("%w: section length %d too large", ErrBadBundle, n)
	}
	ahead := n
	if size < 0 {
		ahead = min(n, sectionChunk)
	}
	data := make([]byte, 0, ahead)
	for len(data) < n {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		k, err := io.ReadFull(br, data[len(data):min(cap(data), n)])
		data = data[:len(data)+k]
		if err != nil {
			return nil, fmt.Errorf("%w: section body: %v", ErrBadBundle, err)
		}
	}
	return data, nil
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSuffix(line, "\n"), nil
}
