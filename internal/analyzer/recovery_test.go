package analyzer

import (
	"strings"
	"testing"

	"teeperf/internal/shmlog"
)

// recoveryReport builds a minimal non-clean salvage report.
func recoveryReport() *shmlog.RecoveryReport {
	rep := &shmlog.RecoveryReport{
		EntriesPresent:  4,
		EntriesSalvaged: 3,
		EntriesDropped:  1,
		TailClamped:     true,
	}
	return rep
}

// TestAnalyzeRecoveredCarriesReport: the salvage report rides on the
// profile so every downstream consumer can see the profile is partial.
func TestAnalyzeRecoveredCarriesReport(t *testing.T) {
	f := newFixture(t, 16, "main", "work")
	f.call(t, 1, "main", 10)
	f.call(t, 1, "work", 20)
	f.ret(t, 1, "work", 30)
	f.ret(t, 1, "main", 40)

	rep := recoveryReport()
	p, err := AnalyzeRecovered(f.log, f.tab, rep)
	if err != nil {
		t.Fatal(err)
	}
	if p.Recovery != rep {
		t.Fatal("Profile.Recovery does not carry the salvage report")
	}
	if len(p.Records()) != 2 {
		t.Fatalf("records = %d, want 2", len(p.Records()))
	}
	// Plain Analyze leaves Recovery nil.
	plain, err := Analyze(f.log, f.tab)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Recovery != nil {
		t.Fatal("plain Analyze set Recovery")
	}
}

// TestAnalyzeRecoveredTruncatedFrame: a salvaged log whose opening calls
// were lost (the tear ate the log's beginning or middle) produces returns
// with no matching call. In recovery mode those surface as the synthetic
// [truncated] frame instead of silently vanishing into the Unmatched
// counter.
func TestAnalyzeRecoveredTruncatedFrame(t *testing.T) {
	f := newFixture(t, 16, "main", "work")
	// The call that opened "work" was lost to the tear; its return
	// survives, followed by an intact call/return pair.
	f.ret(t, 1, "work", 15)
	f.call(t, 1, "main", 20)
	f.ret(t, 1, "main", 30)

	p, err := AnalyzeRecovered(f.log, f.tab, recoveryReport())
	if err != nil {
		t.Fatal(err)
	}
	if p.Unmatched != 1 {
		t.Fatalf("Unmatched = %d, want 1", p.Unmatched)
	}
	var truncated []Record
	for _, r := range p.Records() {
		if r.Name == TruncatedFrameName {
			truncated = append(truncated, r)
		}
	}
	if len(truncated) != 1 {
		t.Fatalf("found %d %s records, want 1 (records: %+v)", len(truncated), TruncatedFrameName, p.Records())
	}
	tr := truncated[0]
	if !tr.Truncated || tr.Start != tr.End || tr.Start != 15 {
		t.Fatalf("synthetic frame = %+v, want zero-width truncated record at counter 15", tr)
	}
	// The synthetic frame shows up in the folded stacks for flame graphs.
	folded := p.Folded()
	found := false
	for stack := range folded {
		if strings.Contains(stack, TruncatedFrameName) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s stack in folded output: %v", TruncatedFrameName, folded)
	}
	// The intact pair still analyzed normally.
	if _, ok := p.Func("main"); !ok {
		t.Fatal("intact call lost in recovery mode")
	}
}

// TestAnalyzeStrictDropsUnmatched pins the non-recovery behavior the
// synthetic frame deliberately diverges from: unmatched returns are
// counted but produce no record.
func TestAnalyzeStrictDropsUnmatched(t *testing.T) {
	f := newFixture(t, 16, "main", "work")
	f.ret(t, 1, "work", 15)
	f.call(t, 1, "main", 20)
	f.ret(t, 1, "main", 30)

	p := f.analyze(t)
	if p.Unmatched != 1 {
		t.Fatalf("Unmatched = %d, want 1", p.Unmatched)
	}
	for _, r := range p.Records() {
		if r.Name == TruncatedFrameName {
			t.Fatalf("strict analysis produced a %s record: %+v", TruncatedFrameName, r)
		}
	}
}

// TestAnalyzeRecoveredNestedTruncated: an unmatched return inside an open
// stack attributes the synthetic frame UNDER the open frames, so the
// flame graph shows where the torn activity happened.
func TestAnalyzeRecoveredNestedTruncated(t *testing.T) {
	f := newFixture(t, 16, "main", "work")
	f.call(t, 1, "main", 10) // still open at the tear
	f.ret(t, 1, "work", 25)  // its call was lost
	f.ret(t, 1, "main", 40)

	p, err := AnalyzeRecovered(f.log, f.tab, recoveryReport())
	if err != nil {
		t.Fatal(err)
	}
	wantStack := "main;" + TruncatedFrameName
	if _, ok := p.Folded()[wantStack]; !ok {
		t.Fatalf("folded stacks %v missing %q", p.Folded(), wantStack)
	}
}
