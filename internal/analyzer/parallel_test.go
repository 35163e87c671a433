package analyzer

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// buildRandomizedLog writes ~100k call/return events from several
// interleaved threads with nested stacks, sprinkled with unmatched returns,
// frames left open at the end (truncation), in-flight holes and released
// tombstones — every irregularity the analyzer must handle.
func buildRandomizedLog(t *testing.T, events int) (*shmlog.Log, *symtab.Table) {
	t.Helper()
	const threads = 8
	rng := rand.New(rand.NewSource(42))

	tab := symtab.New()
	addrs := make([]uint64, 32)
	for i := range addrs {
		addr, err := tab.Register(fmt.Sprintf("fn_%02d", i), 0x40, "fixture.c", i+1)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
	}

	log, err := shmlog.New(events + 64)
	if err != nil {
		t.Fatal(err)
	}
	stacks := make([][]uint64, threads+1)
	for i := 0; i < events; i++ {
		tid := uint64(rng.Intn(threads) + 1)
		stack := &stacks[tid]
		e := shmlog.Entry{Counter: uint64(i + 1), ThreadID: tid}
		switch {
		case rng.Intn(50) == 0:
			// Unmatched return: an address that is not on the stack.
			e.Kind = shmlog.KindReturn
			e.Addr = 0xDEAD0000 + uint64(rng.Intn(8))*0x10
		case len(*stack) == 0 || (rng.Intn(2) == 0 && len(*stack) < 40):
			e.Kind = shmlog.KindCall
			e.Addr = addrs[rng.Intn(len(addrs))]
			*stack = append(*stack, e.Addr)
		default:
			// Return from a random live frame: everything above it closes
			// implicitly (lost returns).
			d := rng.Intn(len(*stack))
			e.Kind = shmlog.KindReturn
			e.Addr = (*stack)[d]
			*stack = (*stack)[:d]
		}
		if err := log.Append(e); err != nil {
			t.Fatal(err)
		}
	}

	// A batched writer's leftovers: committed, in-flight and released slots.
	start, n := log.Reserve(12)
	if n != 12 {
		t.Fatalf("Reserve = %d slots, want 12", n)
	}
	for i := 0; i < 4; i++ {
		log.Commit(start+uint64(i), shmlog.Entry{
			Kind: shmlog.KindCall, Counter: uint64(events + i + 1), Addr: addrs[i], ThreadID: 1,
		})
	}
	for i := 4; i < 8; i++ {
		log.Release(start + uint64(i))
	}
	// Slots start+8..start+11 stay in flight (holes).
	return log, tab
}

// TestAnalyzeParallelMatchesSerial: the worker-pool analysis must be
// indistinguishable from the serial one on a randomized 100k-entry log —
// same records in the same order, same aggregates, same rendered table.
func TestAnalyzeParallelMatchesSerial(t *testing.T) {
	log, tab := buildRandomizedLog(t, 100_000)

	serial, err := AnalyzeWith(log, tab, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Dismissed != 8 {
		t.Fatalf("Dismissed = %d, want 8 (4 tombstones + 4 holes)", serial.Dismissed)
	}
	if serial.Unmatched == 0 || serial.Truncated == 0 {
		t.Fatalf("fixture too tame: unmatched=%d truncated=%d", serial.Unmatched, serial.Truncated)
	}

	for _, workers := range []int{0, 2, 5, 16} {
		parallel, err := AnalyzeWith(log, tab, Options{Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel.Records(), serial.Records()) {
			t.Fatalf("parallelism %d: record streams differ", workers)
		}
		if !reflect.DeepEqual(parallel.Funcs(), serial.Funcs()) {
			t.Fatalf("parallelism %d: function tables differ", workers)
		}
		if !reflect.DeepEqual(parallel.Threads(), serial.Threads()) {
			t.Fatalf("parallelism %d: thread tables differ", workers)
		}
		if !reflect.DeepEqual(parallel.Folded(), serial.Folded()) {
			t.Fatalf("parallelism %d: folded stacks differ", workers)
		}
		if parallel.TotalTicks != serial.TotalTicks ||
			parallel.Truncated != serial.Truncated ||
			parallel.Unmatched != serial.Unmatched ||
			parallel.Dismissed != serial.Dismissed ||
			parallel.PID != serial.PID {
			t.Fatalf("parallelism %d: scalar fields differ: %+v vs %+v", workers, parallel, serial)
		}
		var a, b bytes.Buffer
		if err := serial.WriteTable(&a, 50); err != nil {
			t.Fatal(err)
		}
		if err := parallel.WriteTable(&b, 50); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("parallelism %d: rendered tables differ", workers)
		}
	}
}

// TestAnalyzeDismissesHolesAndTombstones: committed events around dismissed
// slots still analyze normally.
func TestAnalyzeDismissesHolesAndTombstones(t *testing.T) {
	tab := symtab.New()
	fAddr, err := tab.Register("f", 0x10, "fixture.c", 1)
	if err != nil {
		t.Fatal(err)
	}
	log, err := shmlog.New(8)
	if err != nil {
		t.Fatal(err)
	}
	start, n := log.Reserve(4)
	if n != 4 {
		t.Fatal("reserve failed")
	}
	log.Commit(start, shmlog.Entry{Kind: shmlog.KindCall, Counter: 1, Addr: fAddr, ThreadID: 1})
	log.Release(start + 1)
	// start+2 stays a hole.
	log.Commit(start+3, shmlog.Entry{Kind: shmlog.KindReturn, Counter: 5, Addr: fAddr, ThreadID: 1})

	p, err := Analyze(log, tab)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dismissed != 2 {
		t.Fatalf("Dismissed = %d, want 2", p.Dismissed)
	}
	recs := p.Records()
	if len(recs) != 1 || recs[0].Name != "f" || recs[0].Incl != 4 || recs[0].Truncated {
		t.Fatalf("records = %+v, want one clean 4-tick execution of f", recs)
	}
}

// TestRecordsInCloseOrder pins Profile.Records to the serial close order
// across threads, at any parallelism: the log's counters rise with the log
// index, so records closed by a log entry come first with nondecreasing End,
// followed by the frames force-closed at the log end, thread by thread in
// order of each thread's first entry.
func TestRecordsInCloseOrder(t *testing.T) {
	log, tab := buildRandomizedLog(t, 20000)
	discovered := make(map[uint64]int)
	for _, e := range log.Entries() {
		if _, ok := discovered[e.ThreadID]; !ok {
			discovered[e.ThreadID] = len(discovered)
		}
	}
	for _, par := range []int{1, 3} {
		p, err := AnalyzeWith(log, tab, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var lastEnd uint64
		forced, thread := false, -1
		for i, r := range p.Records() {
			if !r.Truncated {
				if forced || r.End < lastEnd {
					t.Fatalf("parallelism %d: record %d (thread %d, end %d) out of close order", par, i, r.Thread, r.End)
				}
				lastEnd = r.End
				continue
			}
			forced = true
			if d := discovered[r.Thread]; d < thread {
				t.Fatalf("parallelism %d: forced close %d of thread %d after a later-discovered thread's", par, i, r.Thread)
			} else {
				thread = d
			}
		}
		if !forced {
			t.Fatal("fixture leaves no frames open")
		}
	}
}
