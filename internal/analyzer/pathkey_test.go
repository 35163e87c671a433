package analyzer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// pathLog appends call/return entries with a counter that never falls.
type pathLog struct {
	t   *testing.T
	log *shmlog.Log
	now uint64
}

func (l *pathLog) add(tid uint64, kind shmlog.Kind, addr, ticks uint64) {
	l.t.Helper()
	l.now += ticks
	if err := l.log.Append(shmlog.Entry{Kind: kind, Counter: l.now, Addr: addr, ThreadID: tid}); err != nil {
		l.t.Fatal(err)
	}
}

func (l *pathLog) call(tid, addr, ticks uint64) { l.add(tid, shmlog.KindCall, addr, ticks) }
func (l *pathLog) ret(tid, addr, ticks uint64)  { l.add(tid, shmlog.KindReturn, addr, ticks) }

// aliasLog has several addresses per displayed name: a mangled symbol and
// its demangled twin, two addresses inside one function, and a symbol named
// exactly like the placeholder of an address no symbol covers.
func aliasLog(t *testing.T) (*shmlog.Log, *symtab.Table, bool) {
	tab := symtab.New()
	main := tab.MustRegister("main", 64, "a.c", 1)
	mangled := tab.MustRegister("_Z3foov", 64, "a.c", 2)
	plain := tab.MustRegister("foo()", 64, "a.c", 3)
	bar := tab.MustRegister("bar", 64, "a.c", 4)
	named := tab.MustRegister("0xdead00", 64, "a.c", 5)
	const unresolved, other = 0xdead00, 0xbeef00
	log, err := shmlog.New(256)
	if err != nil {
		t.Fatal(err)
	}
	l := &pathLog{t: t, log: log}
	for round := uint64(0); round < 3; round++ {
		for tid := uint64(1); tid <= 2; tid++ {
			l.call(tid, main, 1)
			l.call(tid, mangled, 2)
			l.call(tid, bar, 3+round)
			l.ret(tid, bar, 5)
			l.ret(tid, mangled, 1)
			l.call(tid, plain, 2)
			l.call(tid, bar+4, 1)
			l.ret(tid, bar+4, 7+tid)
			l.ret(tid, plain, 2)
			l.call(tid, named, 1)
			l.call(tid, other, 2)
			l.ret(tid, other, 3)
			l.ret(tid, named, 1)
			l.call(tid, unresolved, 1)
			l.call(tid, other, 4)
			l.ret(tid, other, 2+round)
			l.ret(tid, unresolved, 1)
			l.ret(tid, main, 3)
		}
	}
	// A zero-width leaf: closed in the tick it opened, never registered.
	l.call(1, main, 1)
	l.call(1, bar, 1)
	l.ret(1, bar, 0)
	l.ret(1, main, 2)
	return log, tab, false
}

// truncatedLog is analyzed leniently: orphaned returns (at the root, under
// an open frame and twice under one path) become zero-width TruncatedFrameName
// records, one at an address that is also a real child of the same path.
func truncatedLog(t *testing.T) (*shmlog.Log, *symtab.Table, bool) {
	tab := symtab.New()
	main := tab.MustRegister("main", 64, "b.c", 1)
	work := tab.MustRegister("work", 64, "b.c", 2)
	leaf := tab.MustRegister("leaf", 64, "b.c", 3)
	lost := tab.MustRegister("lost", 64, "b.c", 4)
	log, err := shmlog.New(256)
	if err != nil {
		t.Fatal(err)
	}
	l := &pathLog{t: t, log: log}
	l.ret(1, lost, 1)
	l.call(1, main, 1)
	l.ret(1, lost, 2)
	l.call(1, work, 3)
	l.ret(1, leaf, 4)
	l.call(1, leaf, 1)
	l.ret(1, leaf, 6)
	l.ret(1, leaf, 2)
	l.ret(1, work, 5)
	l.ret(2, work, 1)
	l.call(2, main, 1)
	l.call(2, work, 2)
	l.call(2, leaf, 3)
	// Thread 2's frames stay open: force-closed at the end of the log.
	l.ret(1, main, 9)
	return log, tab, true
}

// recursionLog recurses 300 deep on one thread, giving only every seventh
// level self time, and beside it a shallow thread with an open frame.
func recursionLog(t *testing.T) (*shmlog.Log, *symtab.Table, bool) {
	tab := symtab.New()
	rec := tab.MustRegister("recurse", 64, "c.c", 1)
	base := tab.MustRegister("base", 64, "c.c", 2)
	log, err := shmlog.New(1024)
	if err != nil {
		t.Fatal(err)
	}
	l := &pathLog{t: t, log: log}
	const depth = 300
	for i := 0; i < depth; i++ {
		l.call(1, rec, 0)
	}
	l.call(1, base, 1)
	l.ret(1, base, 4)
	for i := 0; i < depth; i++ {
		var ticks uint64
		if i%7 == 0 {
			ticks = uint64(i%5 + 1)
		}
		l.ret(1, rec, ticks)
	}
	l.call(2, base, 1)
	l.call(2, rec, 3)
	l.ret(2, rec, 2)
	return log, tab, false
}

// sampledLog is a period-8 log of four interleaved threads over a seeded
// random call tree, with lost returns and frames left open at the end.
func sampledLog(t *testing.T) (*shmlog.Log, *symtab.Table, bool) {
	tab := symtab.New()
	var addrs []uint64
	for i := 0; i < 12; i++ {
		addrs = append(addrs, tab.MustRegister(fmt.Sprintf("s%02d", i), 64, "d.c", i+1))
	}
	log, err := shmlog.New(4096, shmlog.WithSamplePeriod(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	l := &pathLog{t: t, log: log}
	stacks := make([][]uint64, 5)
	for i := 0; i < 3000; i++ {
		tid := uint64(rng.Intn(4) + 1)
		s := &stacks[tid]
		ticks := uint64(rng.Intn(4))
		if len(*s) == 0 || (rng.Intn(2) == 0 && len(*s) < 14) {
			a := addrs[rng.Intn(3+len(*s)%9)]
			*s = append(*s, a)
			l.call(tid, a, ticks)
			continue
		}
		d := len(*s) - 1
		if rng.Intn(8) == 0 {
			d = rng.Intn(len(*s)) // lost returns above d
		}
		l.ret(tid, (*s)[d], ticks)
		*s = (*s)[:d]
	}
	return log, tab, false
}

// profileDump renders every order-independent view of a profile, plus its
// records in close order, as text.
func profileDump(t *testing.T, p *Profile) []byte {
	t.Helper()
	var b bytes.Buffer
	folded := p.Folded()
	keys := make([]string, 0, len(folded))
	for k := range folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "folded %q %d\n", k, folded[k])
	}
	for _, f := range p.Funcs() {
		fmt.Fprintf(&b, "func %q %#x %d %d %d\n", f.Name, f.Addr, f.Calls, f.Incl, f.Self)
		for _, e := range sortedEdges(f.Callers) {
			fmt.Fprintf(&b, "  caller %q %d\n", e.name, e.count)
		}
		for _, e := range sortedEdges(f.Callees) {
			fmt.Fprintf(&b, "  callee %q %d\n", e.name, e.count)
		}
	}
	for _, ps := range p.Paths() {
		fmt.Fprintf(&b, "path %q %q %d %d %d\n", ps.Stack, ps.Leaf, ps.Calls, ps.Incl, ps.Self)
	}
	if err := p.WriteCallGraph(&b, len(p.Funcs())); err != nil {
		t.Fatal(err)
	}
	for _, r := range p.Records() {
		fmt.Fprintf(&b, "rec %+v\n", r)
	}
	fmt.Fprintf(&b, "total %d truncated %d unmatched %d period %d\n",
		p.TotalTicks, p.Truncated, p.Unmatched, p.SamplePeriod)
	return b.Bytes()
}

// TestPathKeys checks the path-keyed fold on inputs where address and
// name disagree: every view must match between serial and parallel
// analysis and equal the digest pinned from the key-per-call analyzer.
func TestPathKeys(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) (*shmlog.Log, *symtab.Table, bool)
		// want is the SHA-256 of profileDump as the analyzer that built a
		// folded key for every closed call produced it.
		want string
	}{
		{"aliases", aliasLog, "5a4fae5fc731c7db1e62ac0327ace13f82d0406abdcdb57e8b7afbd4708f50b1"},
		{"truncated", truncatedLog, "64fa4b5a903e0f0d12c1c4b518f156ca755771ac5b0f931ec2ca892ee7d05d93"},
		{"recursion300", recursionLog, "1452cc5ce7d012c1c73d110cb25ff7d203cd9b47c6fb3e06a9211d4967f5592b"},
		{"sampled8", sampledLog, "4cd0485d33177a702c9f3d259448947578a560f33c570762287a554d8105bda9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log, tab, lenient := tc.build(t)
			var rep *shmlog.RecoveryReport
			if lenient {
				rep = &shmlog.RecoveryReport{}
			}
			var first []byte
			for _, par := range []int{1, 3} {
				p, err := AnalyzeWith(log, tab, Options{Parallelism: par, Recovery: rep})
				if err != nil {
					t.Fatal(err)
				}
				dump := profileDump(t, p)
				if first == nil {
					first = dump
				} else if !bytes.Equal(dump, first) {
					t.Fatalf("Parallelism %d differs from serial:\n%s\nserial:\n%s", par, dump, first)
				}
			}
			sum := sha256.Sum256(first)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("profile digest = %s, want %s\n%s", got, tc.want, first)
			}
		})
	}
}
