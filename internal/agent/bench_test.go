package agent

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// BenchmarkAgentScrape measures one fleet scrape cycle: per iteration each
// of 8 sessions commits a burst of 128 call/return pairs and the agent
// drains and folds all of them. This is the agent's hot path — the cost a
// scrape interval must amortize.
func BenchmarkAgentScrape(b *testing.B) {
	if !shmlog.MmapSupported {
		b.Skip("mmap unsupported on this platform")
	}
	const sessions = 8
	const pairs = 128
	dir := b.TempDir()
	a := New(Config{})
	defer a.Close()
	writers := make([]*shmlog.Log, sessions)
	for i := range writers {
		path := filepath.Join(dir, fmt.Sprintf("s%02d.shm", i))
		log, err := shmlog.CreateFile(path, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		writers[i] = log
		a.Register(path)
	}
	a.ScrapeOnce() // attach every session

	b.ResetTimer()
	b.ReportAllocs()
	full := false
	for i := 0; i < b.N; i++ {
		for _, log := range writers {
			tick := uint64(i * pairs * 8)
			for p := 0; p < pairs && !full; p++ {
				tick += 3
				if log.Append(shmlog.Entry{Kind: shmlog.KindCall, Counter: tick, Addr: 0x1000, ThreadID: 1}) != nil {
					full = true // very long -benchtime outran the capacity
					break
				}
				tick += 5
				_ = log.Append(shmlog.Entry{Kind: shmlog.KindReturn, Counter: tick, Addr: 0x1000, ThreadID: 1})
			}
		}
		if drained := a.ScrapeOnce(); !full && drained != sessions*pairs*2 {
			b.Fatalf("drained %d, want %d", drained, sessions*pairs*2)
		}
	}
	b.ReportMetric(float64(sessions*pairs*2), "entries/op")
}

// BenchmarkAgentScrapeSymbols is BenchmarkAgentScrape on the resolving
// path: every session's symbol side file, 512 mangled C++ functions, is
// published before the first scrape, and each burst commits call stacks 3
// to 12 frames deep over those functions, so every drained call names a
// registered symbol.
func BenchmarkAgentScrapeSymbols(b *testing.B) {
	if !shmlog.MmapSupported {
		b.Skip("mmap unsupported on this platform")
	}
	const sessions = 8
	const funcs = 512
	const stacksPerBurst = 16
	tab := symtab.New()
	addrs := make([]uint64, funcs)
	for i := range addrs {
		addrs[i] = tab.MustRegister(fmt.Sprintf("_ZN5bench6fn%04dEv", i), 64, "bench.cc", i+1)
	}
	rng := rand.New(rand.NewSource(1))
	stacks := make([][]uint64, 64)
	for i := range stacks {
		stacks[i] = make([]uint64, 3+rng.Intn(10))
		for d := range stacks[i] {
			stacks[i][d] = addrs[rng.Intn(funcs)]
		}
	}

	dir := b.TempDir()
	a := New(Config{})
	defer a.Close()
	writers := make([]*shmlog.Log, sessions)
	names := make([]string, sessions)
	for i := range writers {
		path := filepath.Join(dir, fmt.Sprintf("s%02d.shm", i))
		log, err := shmlog.CreateFile(path, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		defer log.Close()
		if err := recorder.WriteSymsFile(recorder.SymsPath(path), tab); err != nil {
			b.Fatal(err)
		}
		writers[i] = log
		names[i] = a.Register(path)
	}
	a.ScrapeOnce() // attach every session and adopt its side file

	b.ResetTimer()
	b.ReportAllocs()
	full := false
	entries := 0
	for i := 0; i < b.N; i++ {
		want := 0
		for s, log := range writers {
			tick := uint64(i) << 20
			for k := 0; k < stacksPerBurst && !full; k++ {
				stack := stacks[(i*sessions+s*stacksPerBurst+k)%len(stacks)]
				for _, addr := range stack {
					tick += 3
					if log.Append(shmlog.Entry{Kind: shmlog.KindCall, Counter: tick, Addr: addr, ThreadID: 1}) != nil {
						full = true // very long -benchtime outran the capacity
						break
					}
					want++
				}
				if full {
					break
				}
				for d := len(stack) - 1; d >= 0; d-- {
					tick += 5
					_ = log.Append(shmlog.Entry{Kind: shmlog.KindReturn, Counter: tick, Addr: stack[d], ThreadID: 1})
					want++
				}
			}
		}
		if drained := a.ScrapeOnce(); !full && drained != want {
			b.Fatalf("drained %d, want %d", drained, want)
		}
		entries += want
	}
	b.StopTimer()
	if top := a.Session(names[0]).Table(1); len(top.Funcs) == 0 || !strings.HasPrefix(top.Funcs[0].Name, "bench::fn") {
		b.Fatalf("symbols not adopted: top function %+v", top.Funcs)
	}
	b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
}
