package symtab

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewHasAnchor(t *testing.T) {
	tab := New()
	s, ok := tab.Lookup(ProfilerAnchorName)
	if !ok {
		t.Fatal("anchor not registered")
	}
	if s.Addr != TextBase {
		t.Errorf("anchor addr = %#x, want %#x", s.Addr, TextBase)
	}
	if tab.AnchorAddr() != TextBase {
		t.Errorf("AnchorAddr() = %#x, want %#x", tab.AnchorAddr(), TextBase)
	}
}

func TestRegisterAssignsAlignedIncreasingAddrs(t *testing.T) {
	tab := New()
	var prev uint64
	for i := 0; i < 100; i++ {
		addr, err := tab.Register(fmt.Sprintf("fn%d", i), uint64(i%50), "f.go", i)
		if err != nil {
			t.Fatal(err)
		}
		if addr%symbolAlign != 0 {
			t.Errorf("fn%d addr %#x not %d-byte aligned", i, addr, symbolAlign)
		}
		if addr <= prev {
			t.Errorf("fn%d addr %#x not increasing (prev %#x)", i, addr, prev)
		}
		prev = addr
	}
}

func TestRegisterValidation(t *testing.T) {
	tab := New()
	if _, err := tab.Register("", 1, "f.go", 1); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := tab.Register("tab\tname", 1, "f.go", 1); err == nil {
		t.Error("tab in name should fail")
	}
	if _, err := tab.Register("ok", 1, "f\n.go", 1); err == nil {
		t.Error("newline in file should fail")
	}
	if _, err := tab.Register("dup", 1, "f.go", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Register("dup", 1, "f.go", 2); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate register err = %v, want ErrDuplicate", err)
	}
}

func TestResolve(t *testing.T) {
	tab := New()
	a := tab.MustRegister("alpha", 32, "a.go", 10)
	b := tab.MustRegister("beta", 16, "b.go", 20)

	tests := []struct {
		name    string
		addr    uint64
		want    string
		wantErr bool
	}{
		{name: "alpha start", addr: a, want: "alpha"},
		{name: "alpha interior", addr: a + 31, want: "alpha"},
		{name: "beta start", addr: b, want: "beta"},
		{name: "past beta end", addr: b + 16, wantErr: true},
		{name: "below text base", addr: TextBase - 1, wantErr: true},
		{name: "anchor", addr: TextBase, want: ProfilerAnchorName},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, err := tab.Resolve(tt.addr)
			if tt.wantErr {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("err = %v, want ErrNotFound", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.Name != tt.want {
				t.Errorf("Resolve(%#x).Name = %q, want %q", tt.addr, s.Name, tt.want)
			}
		})
	}
}

func TestLoadBias(t *testing.T) {
	tab := New()
	fn := tab.MustRegister("fn", 16, "f.go", 1)

	// Simulate the binary being loaded 0x1000 bytes higher than its
	// static link address: the log header records the runtime anchor.
	const bias = 0x1000
	tab.SetLoadBias(TextBase + bias)
	if got := tab.LoadBias(); got != bias {
		t.Fatalf("LoadBias() = %d, want %d", got, bias)
	}
	s, err := tab.Resolve(fn + bias)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "fn" {
		t.Errorf("resolved %q, want fn", s.Name)
	}
	// The unbiased address must now miss.
	if _, err := tab.Resolve(fn); err == nil {
		t.Error("unbiased address resolved after bias installation")
	}
}

func TestNegativeLoadBias(t *testing.T) {
	tab := New()
	fn := tab.MustRegister("fn", 16, "f.go", 1)
	tab.SetLoadBias(TextBase - 0x100) // loaded below link address
	s, err := tab.Resolve(fn - 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "fn" {
		t.Errorf("resolved %q, want fn", s.Name)
	}
}

func TestNameFallback(t *testing.T) {
	tab := New()
	if got := tab.Name(0x12); got != "0x12" {
		t.Errorf("Name(unknown) = %q, want hex fallback", got)
	}
	tab.MustRegister("_ZN7rocksdb5Stats3NowEv", 16, "s.cc", 1)
	addr := tab.Addr("_ZN7rocksdb5Stats3NowEv")
	if got := tab.Name(addr); got != "rocksdb::Stats::Now()" {
		t.Errorf("Name = %q, want demangled", got)
	}
}

// TestNameMissPath pins the unresolved-address placeholder to the
// fmt rendering it replaced and keeps the miss path at one allocation:
// the returned string.
func TestNameMissPath(t *testing.T) {
	tab := New()
	fn := tab.MustRegister("fn", 16, "f.go", 1)
	for _, a := range []uint64{0, fn + 0x100000, ^uint64(0)} {
		if got, want := tab.Name(a), fmt.Sprintf("0x%x", a); got != want {
			t.Errorf("Name(%#x) = %q, want %q", a, got, want)
		}
	}
	miss := fn + 0x100000
	if n := testing.AllocsPerRun(100, func() { _ = tab.Name(miss) }); n > 1 {
		t.Errorf("Name on a miss allocates %v times, want <= 1", n)
	}
	if _, err := tab.Resolve(miss); !errors.Is(err, ErrNotFound) {
		t.Errorf("Resolve(miss) error = %v, want ErrNotFound", err)
	}
}

func TestAddrUnknown(t *testing.T) {
	tab := New()
	if got := tab.Addr("missing"); got != 0 {
		t.Errorf("Addr(missing) = %#x, want 0", got)
	}
}

func TestSideFileRoundTrip(t *testing.T) {
	tab := New()
	tab.MustRegister("main", 64, "cmd/app/main.go", 12)
	tab.MustRegister("rocksdb::DBImpl::Get", 128, "db/db_impl.cc", 1500)
	tab.MustRegister("with spaces ok", 16, "weird file.go", 3)

	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tab.Len() {
		t.Fatalf("decoded %d symbols, want %d", got.Len(), tab.Len())
	}
	for _, want := range tab.Symbols() {
		s, ok := got.Lookup(want.Name)
		if !ok {
			t.Errorf("symbol %q missing after round trip", want.Name)
			continue
		}
		if s != want {
			t.Errorf("symbol %q = %+v, want %+v", want.Name, s, want)
		}
	}
	// Registration continues past the decoded symbols.
	addr, err := got.Register("extra", 16, "x.go", 1)
	if err != nil {
		t.Fatal(err)
	}
	syms := got.Symbols()
	if last := syms[len(syms)-1]; addr < last.Addr {
		t.Errorf("post-decode registration address %#x below max %#x", addr, last.Addr)
	}
}

func TestReadErrors(t *testing.T) {
	tests := []struct {
		name  string
		input string
	}{
		{name: "empty", input: ""},
		{name: "bad header", input: "NOPE\n"},
		{name: "missing fields", input: "TEESYM1\n400000\t64\n"},
		{name: "bad addr", input: "TEESYM1\nzzz\t64\tf.go:1\tname\n"},
		{name: "bad size", input: "TEESYM1\n400000\tx\tf.go:1\tname\n"},
		{name: "bad location", input: "TEESYM1\n400000\t64\tf.go\tname\n"},
		{name: "bad line number", input: "TEESYM1\n400000\t64\tf.go:x\tname\n"},
		{name: "empty name", input: "TEESYM1\n400000\t64\tf.go:1\t\n"},
		{name: "duplicate", input: "TEESYM1\n400000\t64\tf.go:1\t__teeperf_profiler\n400040\t64\tf.go:2\t__teeperf_profiler\n"},
		{name: "missing anchor", input: "TEESYM1\n400000\t64\tf.go:1\tmain\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tt.input)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
		})
	}
}

func TestResolveProperty(t *testing.T) {
	// Property: every registered symbol resolves correctly at its start,
	// interior and last byte, for arbitrary sizes.
	f := func(sizes []uint8) bool {
		tab := New()
		names := make([]string, 0, len(sizes))
		for i, sz := range sizes {
			if len(names) >= 64 {
				break
			}
			name := fmt.Sprintf("f%d", i)
			if _, err := tab.Register(name, uint64(sz), "p.go", i); err != nil {
				return false
			}
			names = append(names, name)
		}
		for _, name := range names {
			s, _ := tab.Lookup(name)
			for _, off := range []uint64{0, s.Size / 2, s.Size - 1} {
				got, err := tab.Resolve(s.Addr + off)
				if err != nil || got.Name != name {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDemangle(t *testing.T) {
	tests := []struct {
		give string
		want string
	}{
		{give: "plain_c_symbol", want: "plain_c_symbol"},
		{give: "main", want: "main"},
		{give: "_Z4workv", want: "work()"},
		{give: "_ZN7rocksdb5Stats3NowEv", want: "rocksdb::Stats::Now()"},
		{give: "_ZN7rocksdb6DBImpl7GetImplERKNS_11ReadOptionsE", want: "rocksdb::DBImpl::GetImpl()"},
		{give: "_ZN7rocksdb15RandomGeneratorC1Ev", want: "rocksdb::RandomGenerator::RandomGenerator()"},
		{give: "_ZN7rocksdb9BenchmarkD2Ev", want: "rocksdb::Benchmark::~Benchmark()"},
		{give: "_ZNK7rocksdb5Slice4sizeEv", want: "rocksdb::Slice::size()"},
		{give: "_ZL9static_fnv", want: "static_fn()"},
		{give: "_ZN12_GLOBAL__N_118StartThreadWrapperEPv", want: "(anonymous namespace)::StartThreadWrapper()"},
		{give: "_ZN3stdIiE4funcEv", want: "std::func()"},                                         // template args skipped
		{give: "_Z", want: "_Z"},                                                                 // truncated: verbatim
		{give: "_ZN7rocksdb", want: "_ZN7rocksdb"},                                               // unterminated: verbatim
		{give: "_ZNSt6vectorIiSaIiEE9push_backERKi", want: "_ZNSt6vectorIiSaIiEE9push_backERKi"}, // substitutions unsupported: verbatim
		{give: "_Z999999999999999999999x", want: "_Z999999999999999999999x"},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			if got := Demangle(tt.give); got != tt.want {
				t.Errorf("Demangle(%q) = %q, want %q", tt.give, got, tt.want)
			}
		})
	}
}

func TestDemangleNeverPanics(t *testing.T) {
	f := func(s string) bool {
		// Must not panic on arbitrary input, and plain input comes back
		// verbatim.
		out := Demangle("_Z" + s)
		return out != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
