// Package symtab is TEE-Perf's debug-symbol substrate. It plays the role
// that the object file, DWARF information and the addr2line/readelf/c++filt
// UNIX tools play for the original analyzer: it assigns virtual text
// addresses to functions at instrumentation time, resolves runtime
// addresses back to symbols (correcting for the relocation offset derived
// from the well-known profiler anchor), and persists itself as a side file
// next to the recorded log.
package symtab

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// TextBase is the start of the virtual text segment, mirroring the
// traditional ELF load address.
const TextBase uint64 = 0x400000

// symbolAlign keeps symbol start addresses 16-byte aligned like a real
// code layout would.
const symbolAlign = 16

// ProfilerAnchorName is the well-known symbol whose runtime address is
// stored in the log header so the analyzer can compute the load bias of
// relocatable code.
const ProfilerAnchorName = "__teeperf_profiler"

// Errors returned by the symbol table.
var (
	// ErrNotFound is returned when an address resolves to no symbol.
	ErrNotFound = errors.New("symtab: address not found")
	// ErrDuplicate is returned when a symbol name is registered twice.
	ErrDuplicate = errors.New("symtab: duplicate symbol")
	// ErrBadFormat is returned when decoding a malformed side file.
	ErrBadFormat = errors.New("symtab: bad side-file format")
)

// Symbol describes one function in the virtual text segment.
type Symbol struct {
	// Name is the (possibly mangled) symbol name.
	Name string
	// Addr is the static virtual address assigned at registration.
	Addr uint64
	// Size is the symbol size in bytes.
	Size uint64
	// File and Line locate the function definition (line-table stand-in).
	File string
	Line int
}

// Table maps names to addresses and back. It is safe for concurrent use.
type Table struct {
	mu     sync.RWMutex
	syms   []Symbol // sorted by Addr
	byName map[string]int
	next   uint64
	bias   int64 // runtime load bias: runtimeAddr = staticAddr + bias
}

// New returns an empty table whose text segment starts at TextBase. The
// profiler anchor symbol is registered first, at the segment base, so its
// static address is always known.
func New() *Table {
	t := &Table{
		byName: make(map[string]int),
		next:   TextBase,
	}
	// The anchor cannot collide in a fresh table.
	if _, err := t.Register(ProfilerAnchorName, 64, "teeperf/probe", 1); err != nil {
		panic(fmt.Sprintf("symtab: registering anchor: %v", err))
	}
	return t
}

// Register assigns the next virtual address to a function and returns it.
// Size 0 is normalized to one aligned slot.
func (t *Table) Register(name string, size uint64, file string, line int) (uint64, error) {
	if name == "" {
		return 0, errors.New("symtab: empty symbol name")
	}
	if strings.ContainsAny(name, "\t\n") || strings.ContainsAny(file, "\t\n") {
		return 0, fmt.Errorf("symtab: name/file must not contain tabs or newlines: %q %q", name, file)
	}
	if size == 0 {
		size = symbolAlign
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byName[name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrDuplicate, name)
	}
	addr := t.next
	t.byName[name] = len(t.syms)
	t.syms = append(t.syms, Symbol{Name: name, Addr: addr, Size: size, File: file, Line: line})
	t.next += (size + symbolAlign - 1) / symbolAlign * symbolAlign
	return addr, nil
}

// MustRegister is Register for static setup code where a duplicate is a
// programming error.
func (t *Table) MustRegister(name string, size uint64, file string, line int) uint64 {
	addr, err := t.Register(name, size, file, line)
	if err != nil {
		panic(err)
	}
	return addr
}

// Lookup returns the symbol registered under name.
func (t *Table) Lookup(name string) (Symbol, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, ok := t.byName[name]
	if !ok {
		return Symbol{}, false
	}
	return t.syms[i], true
}

// Addr returns the static address of name, or 0 if unregistered.
func (t *Table) Addr(name string) uint64 {
	s, _ := t.Lookup(name) // a miss returns the zero Symbol
	return s.Addr
}

// AnchorAddr returns the static address of the profiler anchor.
func (t *Table) AnchorAddr() uint64 { return t.Addr(ProfilerAnchorName) }

// SetLoadBias installs the relocation offset computed from the runtime
// address of the profiler anchor (as recorded in the log header by the
// recorder). After this call Resolve accepts runtime addresses.
func (t *Table) SetLoadBias(runtimeAnchorAddr uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	static := t.syms[t.byName[ProfilerAnchorName]].Addr
	t.bias = int64(runtimeAnchorAddr) - int64(static)
}

// LoadBias returns the currently installed relocation offset.
func (t *Table) LoadBias() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.bias
}

// Resolve maps a runtime address to the symbol containing it.
func (t *Table) Resolve(runtimeAddr uint64) (Symbol, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i, ok := t.lookup(runtimeAddr); ok {
		return t.syms[i], nil
	}
	return Symbol{}, fmt.Errorf("%w: %#x", ErrNotFound, runtimeAddr)
}

// lookup returns the index of the symbol containing runtimeAddr without
// allocating. The caller holds t.mu.
func (t *Table) lookup(runtimeAddr uint64) (int, bool) {
	static := uint64(int64(runtimeAddr) - t.bias)
	i := sort.Search(len(t.syms), func(i int) bool { return t.syms[i].Addr > static }) - 1
	return i, i >= 0 && static < t.syms[i].Addr+t.syms[i].Size
}

// Name resolves a runtime address to a demangled display name, falling back
// to a hex rendering of the address (like addr2line's "??").
func (t *Table) Name(runtimeAddr uint64) string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i, ok := t.lookup(runtimeAddr); ok {
		return Demangle(t.syms[i].Name)
	}
	var buf [18]byte
	return string(strconv.AppendUint(append(buf[:0], "0x"...), runtimeAddr, 16))
}

// Symbols returns a copy of the table contents sorted by address.
func (t *Table) Symbols() []Symbol {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]Symbol, len(t.syms))
	copy(out, t.syms)
	return out
}

// Len returns the number of registered symbols (including the anchor).
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.syms)
}

// sideFileHeader identifies the persisted symbol side file.
const sideFileHeader = "TEESYM1"

// WriteTo persists the table as a tab-separated text side file:
//
//	TEESYM1
//	<hex addr>\t<size>\t<file>:<line>\t<name>
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	bw := bufio.NewWriter(w)
	var n int64
	m, err := fmt.Fprintln(bw, sideFileHeader)
	n += int64(m)
	if err != nil {
		return n, err
	}
	for _, s := range t.syms {
		m, err := fmt.Fprintf(bw, "%x\t%d\t%s:%d\t%s\n", s.Addr, s.Size, s.File, s.Line, s.Name)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

var _ io.WriterTo = (*Table)(nil)

// Read decodes a side file previously written with WriteTo.
func Read(r io.Reader) (*Table, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("%w: empty file", ErrBadFormat)
	}
	if sc.Text() != sideFileHeader {
		return nil, fmt.Errorf("%w: bad header %q", ErrBadFormat, sc.Text())
	}
	t := &Table{byName: make(map[string]int), next: TextBase}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		sym, err := parseSideLine(line)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo, err)
		}
		if _, dup := t.byName[sym.Name]; dup {
			return nil, fmt.Errorf("%w: line %d: duplicate %q", ErrBadFormat, lineNo, sym.Name)
		}
		t.byName[sym.Name] = len(t.syms)
		t.syms = append(t.syms, sym)
		if end := sym.Addr + sym.Size; end > t.next {
			t.next = (end + symbolAlign - 1) / symbolAlign * symbolAlign
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("symtab: read side file: %w", err)
	}
	sort.Slice(t.syms, func(i, j int) bool { return t.syms[i].Addr < t.syms[j].Addr })
	for i, s := range t.syms {
		t.byName[s.Name] = i
	}
	if _, ok := t.byName[ProfilerAnchorName]; !ok {
		return nil, fmt.Errorf("%w: missing profiler anchor symbol", ErrBadFormat)
	}
	return t, nil
}

func parseSideLine(line string) (Symbol, error) {
	fields := strings.SplitN(line, "\t", 4)
	if len(fields) != 4 {
		return Symbol{}, fmt.Errorf("want 4 fields, got %d", len(fields))
	}
	addr, err := strconv.ParseUint(fields[0], 16, 64)
	if err != nil {
		return Symbol{}, fmt.Errorf("addr: %v", err)
	}
	size, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return Symbol{}, fmt.Errorf("size: %v", err)
	}
	loc := fields[2]
	colon := strings.LastIndexByte(loc, ':')
	if colon < 0 {
		return Symbol{}, fmt.Errorf("location %q missing line number", loc)
	}
	lineNum, err := strconv.Atoi(loc[colon+1:])
	if err != nil {
		return Symbol{}, fmt.Errorf("line number: %v", err)
	}
	name := fields[3]
	if name == "" {
		return Symbol{}, errors.New("empty name")
	}
	return Symbol{Name: name, Addr: addr, Size: size, File: loc[:colon], Line: lineNum}, nil
}
