package profilestore

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"teeperf/internal/faultinject"
	"teeperf/internal/recorder"
)

// Manifest protocol (LevelDB-style): the store's durable state is one
// MANIFEST-<seq> file naming every live table, and a CURRENT file holding
// the name of the committed manifest. Every mutation writes a complete new
// manifest (tmp→fsync→rename), then repoints CURRENT (tmp→fsync→rename).
// The CURRENT rename is the commit point: a segment is acknowledged only
// after it lands, so a kill anywhere earlier leaves the previous manifest
// committed, the new files orphaned, and the segment un-acknowledged —
// exactly-once follows from re-ingesting anything not acknowledged.
//
// On-disk encoding: one header line "TEEPSTM1 <crc32c-hex>" followed by
// the JSON body the CRC covers, so a torn manifest is detected without
// trusting any of its content.

const (
	manifestMagic  = "TEEPSTM1"
	manifestFormat = 1
	currentName    = "CURRENT"
)

// ErrBadManifest is returned when a manifest file fails validation.
var ErrBadManifest = errors.New("profilestore: bad manifest")

// TableMeta is one live table's manifest record. The footer-derived fields
// duplicate the table file's own footer; open cross-checks them so a
// manifest pointing at a recycled or swapped file is caught.
type TableMeta struct {
	File         string   `json:"file"`
	Seq          uint64   `json:"seq"`
	Level        int      `json:"level"`
	Entries      uint64   `json:"entries"`
	MinCounter   uint64   `json:"min_counter"`
	MaxCounter   uint64   `json:"max_counter"`
	PID          uint64   `json:"pid"`
	ProfilerAddr uint64   `json:"profiler_addr"`
	SamplePeriod uint64   `json:"sample_period"`
	Segments     []string `json:"segments"`
}

func (m TableMeta) info() tableInfo {
	return tableInfo{
		Entries:      m.Entries,
		MinCounter:   m.MinCounter,
		MaxCounter:   m.MaxCounter,
		PID:          m.PID,
		ProfilerAddr: m.ProfilerAddr,
		SamplePeriod: m.SamplePeriod,
	}
}

// manifest is the store's durable state.
type manifest struct {
	Format    int         `json:"format"`
	Seq       uint64      `json:"seq"`
	NextTable uint64      `json:"next_table"`
	Tables    []TableMeta `json:"tables"`
}

// segments returns every acknowledged segment ID, mapped to the table seq
// currently holding it.
func (m *manifest) segments() map[string]uint64 {
	out := make(map[string]uint64)
	for _, t := range m.Tables {
		for _, s := range t.Segments {
			out[s] = t.Seq
		}
	}
	return out
}

func manifestName(seq uint64) string { return fmt.Sprintf("MANIFEST-%06d", seq) }

func tableName(seq uint64) string { return fmt.Sprintf("tbl-%06d.tpt", seq) }

// manifestSeq parses a MANIFEST-<seq> basename, reporting ok=false for
// anything else.
func manifestSeq(name string) (uint64, bool) {
	rest, found := strings.CutPrefix(name, "MANIFEST-")
	if !found {
		return 0, false
	}
	seq, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// encodeManifest renders the header+JSON encoding.
func encodeManifest(m *manifest) ([]byte, error) {
	body, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	head := fmt.Sprintf("%s %08x\n", manifestMagic, crc32.Checksum(body, crcTable))
	return append([]byte(head), body...), nil
}

// decodeManifest validates and decodes a manifest encoding. It trusts
// nothing before the header CRC matches the body, so torn or bit-flipped
// manifests fail here and open falls back to an older one.
func decodeManifest(data []byte) (*manifest, error) {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("%w: no header line", ErrBadManifest)
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 2 || fields[0] != manifestMagic {
		return nil, fmt.Errorf("%w: bad header", ErrBadManifest)
	}
	want, err := strconv.ParseUint(fields[1], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("%w: bad header CRC field", ErrBadManifest)
	}
	body := data[nl+1:]
	if crc32.Checksum(body, crcTable) != uint32(want) {
		return nil, fmt.Errorf("%w: CRC mismatch (torn file)", ErrBadManifest)
	}
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if m.Format != manifestFormat {
		return nil, fmt.Errorf("%w: unsupported format %d", ErrBadManifest, m.Format)
	}
	seen := make(map[uint64]bool, len(m.Tables))
	for _, t := range m.Tables {
		if t.File != tableName(t.Seq) || seen[t.Seq] || t.Seq >= m.NextTable ||
			t.Level < 0 || t.MaxCounter < t.MinCounter {
			return nil, fmt.Errorf("%w: inconsistent table record %q", ErrBadManifest, t.File)
		}
		seen[t.Seq] = true
	}
	return &m, nil
}

// writeManifest durably writes MANIFEST-<m.Seq> into dir (tmp→fsync→
// rename) and then commits it by atomically repointing CURRENT. The
// injector's store points bracket every step so the crash matrix can kill
// between any two of them.
func writeManifest(dir string, m *manifest, inj *faultinject.Injector) error {
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	name := manifestName(m.Seq)
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := inj.Writer(f, faultinject.StoreManifestWrite).Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := inj.Hit(faultinject.StoreManifestSync); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}

	// Commit: repoint CURRENT through its own atomic rename.
	ctmp := filepath.Join(dir, currentName+".tmp")
	if err := os.WriteFile(ctmp, []byte(name+"\n"), 0o644); err != nil {
		return err
	}
	if err := syncFile(ctmp); err != nil {
		os.Remove(ctmp)
		return err
	}
	if err := inj.Hit(faultinject.StoreCurrentRename); err != nil {
		os.Remove(ctmp)
		return err
	}
	if err := os.Rename(ctmp, filepath.Join(dir, currentName)); err != nil {
		os.Remove(ctmp)
		return err
	}
	recorder.SyncDir(dir)
	return nil
}

// readCurrent resolves the committed manifest: the one CURRENT names, or —
// when CURRENT is missing, torn, or dangling — the highest-seq manifest
// that still validates. The fallback is reported, never silent.
func readCurrent(dir string) (*manifest, *OpenReport, error) {
	rep := &OpenReport{}
	if data, err := os.ReadFile(filepath.Join(dir, currentName)); err == nil {
		name := strings.TrimSpace(string(data))
		if seq, ok := manifestSeq(name); ok {
			m, merr := loadManifest(filepath.Join(dir, name))
			if merr == nil {
				if m.Seq != seq {
					rep.Corruption = append(rep.Corruption,
						fmt.Sprintf("%s: seq %d does not match its name", name, m.Seq))
				} else {
					rep.ManifestSeq = m.Seq
					return m, rep, nil
				}
			} else {
				rep.Corruption = append(rep.Corruption, fmt.Sprintf("%s: %v", name, merr))
			}
		} else {
			rep.Corruption = append(rep.Corruption, fmt.Sprintf("CURRENT names %q", name))
		}
		rep.CurrentFallback = true
	} else if !os.IsNotExist(err) {
		return nil, rep, err
	}

	// Fallback: newest manifest on disk that validates.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, rep, err
	}
	var seqs []uint64
	for _, e := range ents {
		if seq, ok := manifestSeq(e.Name()); ok && !e.IsDir() {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs {
		name := manifestName(seq)
		m, merr := loadManifest(filepath.Join(dir, name))
		if merr != nil || m.Seq != seq {
			rep.Corruption = append(rep.Corruption, fmt.Sprintf("%s: %v", name, merr))
			continue
		}
		rep.CurrentFallback = true
		rep.ManifestSeq = m.Seq
		return m, rep, nil
	}

	// Fresh store (or every manifest torn — the sweep reports any table
	// files left behind as orphans).
	return &manifest{Format: manifestFormat}, rep, nil
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(data)
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
