package profilestore

import (
	"fmt"
	"testing"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// benchSegment builds one ~6k-entry balanced segment starting at a counter
// offset, so distinct segments occupy distinct windows.
func benchSegment(base uint64) (*symtab.Table, *shmlog.Log, uint64) {
	tab := symtab.New()
	var addrs []uint64
	for _, name := range []string{"pp_a", "pp_b", "pp_c", "pp_d"} {
		addrs = append(addrs, tab.MustRegister(name, 16, "bench_test.go", 1))
	}
	tick := base
	var entries []shmlog.Entry
	for r := 0; r < 750; r++ {
		for _, a := range addrs {
			tick++
			entries = append(entries, shmlog.Entry{Kind: shmlog.KindCall, Counter: tick, Addr: a, ThreadID: 7})
			tick += 2
			entries = append(entries, shmlog.Entry{Kind: shmlog.KindReturn, Counter: tick, Addr: a, ThreadID: 7})
		}
	}
	return tab, shmlog.FromEntries(entries, 4242, 0, 1), tick
}

// BenchmarkStoreIngest measures the full durable ingest path: sort, table
// write (with per-block CRCs), fsync, manifest commit, reader reopen.
func BenchmarkStoreIngest(b *testing.B) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	tab, log, _ := benchSegment(0)
	entries := log.CommittedEntries()
	b.SetBytes(int64(len(entries) * entryBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.IngestLog(log, tab, fmt.Sprintf("seg-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreQuery measures a full-window time-travel query over a store
// of eight compacted-and-fresh tables, through the block cache.
func BenchmarkStoreQuery(b *testing.B) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	var base uint64
	var total int
	for i := 0; i < 8; i++ {
		tab, log, next := benchSegment(base)
		base = next
		res, err := st.IngestLog(log, tab, fmt.Sprintf("seg-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		total += res.Entries
	}
	if _, err := st.MaybeCompact(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(total * entryBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Profile(AllThreads, 0, FullWindow); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCompact measures one compaction step merging 16 L0 tables
// into one (block reads, counter merge, table write, manifest commit). The
// 16 segments are one thread each over one shared clock, taking turns
// event by event as a fleet's sessions do, so their windows overlap and the
// merge interleaves all 16 at every step.
func BenchmarkStoreCompact(b *testing.B) {
	const tables, perTable = 16, 6000
	tab := symtab.New()
	addr := tab.MustRegister("pp_a", 16, "bench_test.go", 1)
	logs := make([]*shmlog.Log, tables)
	for t := range logs {
		entries := make([]shmlog.Entry, perTable)
		for i := range entries {
			kind := shmlog.KindCall
			if i%2 == 1 {
				kind = shmlog.KindReturn
			}
			entries[i] = shmlog.Entry{Kind: kind, Counter: uint64(i*tables + t + 1), Addr: addr, ThreadID: uint64(t + 1)}
		}
		logs[t] = shmlog.FromEntries(entries, 4242, 0, 1)
	}
	b.SetBytes(int64(tables * perTable * entryBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := Open(b.TempDir(), Options{Fanout: tables})
		if err != nil {
			b.Fatal(err)
		}
		for t, log := range logs {
			if _, err := st.IngestLog(log, tab, fmt.Sprintf("seg-%d", t)); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if ran, err := st.MaybeCompact(); err != nil || !ran {
			b.Fatalf("MaybeCompact = %v, %v", ran, err)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}
