package analyzer

import (
	"reflect"
	"testing"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// FuzzAnalyzerEngines decodes bytes into a call/return stream and checks
// every engine against the others on it: serial and parallel AnalyzeWith
// agree record for record, a drained Incremental equals Analyze, and
// AnalyzeRecovered accepts the log. The Incremental starts on an empty
// table, as a fleet agent does before a symbol side file appears, and
// switches to the real one part way through the stream.
//
// The first byte's bits 0-1 pick the header sampling period (none, 1, 8 or
// 64) and its upper six bits the switch point, from before the first entry
// (0) to after the last (63). Each following byte pair is one entry: the
// first byte's low two bits pick thread 1-4, bit 2 the kind, bits 3-5 the
// address (six registered functions, otherwise one address no symbol
// covers) and bits 6-7 == 3 a counter step backwards (TSC skew); the second
// byte is the counter step.
func FuzzAnalyzerEngines(f *testing.F) {
	f.Add([]byte{0, 0x00, 3, 0x08, 2, 0x0C, 4, 0x04, 1})
	f.Add([]byte{2, 0x01, 1, 0x02, 1, 0x05, 9, 0xC6, 3, 0x3C, 1, 0x0D, 2})
	f.Add([]byte{3, 0x00, 5, 0x30, 1, 0x34, 7, 0xC4, 2, 0x07, 1})
	f.Add([]byte{0x81, 0x00, 3, 0x08, 2, 0x0D, 1, 0x00, 4, 0x04, 1, 0x0C, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<12 {
			return
		}
		tab := symtab.New()
		var addrs []uint64
		for _, n := range []string{"fz_a", "fz_b", "fz_c", "fz_d", "fz_e", "fz_f"} {
			addrs = append(addrs, tab.MustRegister(n, 16, "fuzz.go", len(addrs)+1))
		}
		unresolved := addrs[len(addrs)-1] + 0x100000

		var opts []shmlog.Option
		if p := []uint64{0, 1, 8, 64}[data[0]%4]; p != 0 {
			opts = append(opts, shmlog.WithSamplePeriod(p))
		}
		body := data[1:]
		log, err := shmlog.New(len(body)/2+1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		now := uint64(1 << 20)
		for i := 0; i+1 < len(body); i += 2 {
			b, step := body[i], uint64(body[i+1])
			e := shmlog.Entry{Kind: shmlog.KindCall, ThreadID: uint64(b&3) + 1, Addr: unresolved}
			if b&4 != 0 {
				e.Kind = shmlog.KindReturn
			}
			if k := int(b>>3) & 7; k < len(addrs) {
				e.Addr = addrs[k]
			}
			if b>>6 == 3 {
				now -= step
			} else {
				now += step
			}
			e.Counter = now
			if err := log.Append(e); err != nil {
				t.Fatal(err)
			}
		}

		serial, err := AnalyzeWith(log, tab, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := AnalyzeWith(log, tab, Options{Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Folded(), parallel.Folded()) {
			t.Fatalf("folded output differs: serial %v, parallel %v", serial.Folded(), parallel.Folded())
		}
		if !reflect.DeepEqual(serial.Records(), parallel.Records()) {
			t.Fatal("records differ between serial and parallel analysis")
		}

		entries := log.Cursor().Next(nil)
		cut := len(entries) * int(data[0]>>2) / 63
		inc := NewIncremental(symtab.New())
		inc.SetSamplePeriod(log.SamplePeriod())
		inc.FeedAll(entries[:cut])
		inc.SetTable(tab)
		inc.FeedAll(entries[cut:])
		live := inc.Snapshot(0)
		assertTablesMatch(t, live, serial)
		if live.Unmatched != serial.Unmatched || live.OpenFrames != serial.Truncated {
			t.Fatalf("live unmatched/open = %d/%d, offline unmatched/truncated = %d/%d",
				live.Unmatched, live.OpenFrames, serial.Unmatched, serial.Truncated)
		}

		if _, err := AnalyzeRecovered(log, tab, &shmlog.RecoveryReport{}); err != nil {
			t.Fatalf("AnalyzeRecovered: %v", err)
		}
	})
}
