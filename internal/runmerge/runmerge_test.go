package runmerge

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// elem carries its input position so an order mismatch between the merge
// and the stable-sort oracle shows up even among equal keys.
type elem struct {
	key uint64
	pos int
}

func elemKey(e *elem) uint64 { return e.key }

func build(keys []uint64) []elem {
	s := make([]elem, len(keys))
	for i, k := range keys {
		s[i] = elem{key: k, pos: i}
	}
	return s
}

// oracle is the order the merge must reproduce: a stable sort by key.
func oracle(s []elem) []elem {
	want := append([]elem(nil), s...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].key < want[j].key })
	return want
}

// split cuts s into parts at random points, empty parts included, so runs
// cross part boundaries and parts fall inside runs.
func split(rng *rand.Rand, s []elem) [][]elem {
	var parts [][]elem
	for len(s) > 0 {
		n := rng.Intn(len(s) + 1)
		if rng.Intn(4) == 0 {
			n = 0
		}
		parts = append(parts, s[:n])
		s = s[n:]
	}
	if rng.Intn(2) == 0 {
		parts = append(parts, nil)
	}
	return parts
}

func keyCases(rng *rand.Rand) map[string][]uint64 {
	cases := map[string][]uint64{
		"empty":   nil,
		"one":     {42},
		"two-asc": {1, 2},
		"two-dsc": {2, 1},
	}
	const n = 2000
	random := make([]uint64, n)
	dups := make([]uint64, n)
	sorted := make([]uint64, n)
	reversed := make([]uint64, n)
	equal := make([]uint64, n)
	for i := range random {
		random[i] = rng.Uint64()
		dups[i] = uint64(rng.Intn(8))
		sorted[i] = uint64(i / 3)
		reversed[i] = uint64(n - i/3)
		equal[i] = 7
	}
	cases["random"] = random
	cases["duplicates"] = dups
	cases["sorted"] = sorted
	cases["reversed"] = reversed
	cases["all-equal"] = equal
	// Many short runs: ascending blocks of 1-5 keys over a small range, as
	// batched writers interleave blocks in one log segment.
	var short []uint64
	for len(short) < n {
		base := uint64(rng.Intn(50))
		for k := rng.Intn(5); k >= 0; k-- {
			short = append(short, base)
			base += uint64(rng.Intn(3))
		}
	}
	cases["short-runs"] = short
	// Long sorted runs with overlapping ranges, as store tables or
	// segments concatenate.
	var tables []uint64
	for t := 0; t < 16; t++ {
		k := uint64(rng.Intn(500))
		for i := 0; i < 100; i++ {
			tables = append(tables, k)
			k += uint64(rng.Intn(4))
		}
	}
	cases["overlapping-tables"] = tables
	return cases
}

// TestMergeMatchesStableSort pins the helper's one contract: over random,
// duplicate-heavy, sorted, reversed, all-equal, empty, one-element and
// many-short-run inputs, cut into parts at random points, Each and Sorted
// produce exactly the order of sort.SliceStable.
func TestMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, keys := range keyCases(rng) {
		for trial := 0; trial < 20; trial++ {
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				s := build(keys)
				want := oracle(s)

				var got []elem
				Each(split(rng, s), elemKey, func(e *elem) { got = append(got, *e) })
				check(t, "Each", got, want)

				check(t, "Sorted", Sorted(s, elemKey), want)
				check(t, "input", s, build(keys)) // never reordered in place
			})
		}
	}
}

// TestSortedPassesThroughSortedInput pins the pass-through: input already
// in order comes back as the same slice, not a copy.
func TestSortedPassesThroughSortedInput(t *testing.T) {
	s := build([]uint64{1, 1, 2, 3, 3, 3, 9})
	if got := Sorted(s, elemKey); &got[0] != &s[0] {
		t.Fatal("sorted input was copied")
	}
	if got := Sorted([]elem(nil), elemKey); got != nil {
		t.Fatalf("empty input: got %v", got)
	}
}

// TestEachVisitsInPlace checks visit receives pointers into the parts, so
// callers may update elements as they go.
func TestEachVisitsInPlace(t *testing.T) {
	a, b := build([]uint64{1, 4}), build([]uint64{2, 3})
	Each([][]elem{a, b}, elemKey, func(e *elem) { e.pos = -1 })
	for _, e := range append(a, b...) {
		if e.pos != -1 {
			t.Fatalf("element %+v not visited in place", e)
		}
	}
}

func check(t *testing.T, what string, got, want []elem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}
