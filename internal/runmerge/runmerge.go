// Package runmerge orders a sequence that is a concatenation of sorted
// runs — log segments, store tables, per-thread record lists — exactly as
// a stable sort by a uint64 key would, without sorting anything in place.
//
// It finds the natural runs (each maximal nondecreasing stretch) in one
// scan and merges them through a heap, equal keys going in run order, so
// the result is the stable order by construction: nondecreasing keys, and
// equal keys in input position order. Input that is already in order is a
// single run and costs only the scan. Uncommitted log slots with stale
// counters need no special case: they merely start extra runs.
package runmerge

// run is one natural run, consumed from its head element parts[part][at].
type run struct {
	key  uint64 // key of the head element
	seq  int    // the run's position in the input: breaks key ties
	part int
	at   int
	left int // elements not yet visited
}

// Each calls visit on every element of parts, read as one concatenated
// sequence, in the order a stable sort of that sequence by key would give.
// A run may span part boundaries. visit receives a pointer into parts and
// may modify the element, but not its key.
func Each[T any](parts [][]T, key func(*T) uint64, visit func(*T)) {
	runs := findRuns(parts, key)
	if len(runs) <= 1 {
		for _, p := range parts {
			for i := range p {
				visit(&p[i])
			}
		}
		return
	}
	merge(parts, runs, key, visit)
}

// Sorted returns s itself when it is already in key order, and otherwise a
// new slice holding s's elements in stable key order.
func Sorted[T any](s []T, key func(*T) uint64) []T {
	parts := [][]T{s}
	runs := findRuns(parts, key)
	if len(runs) <= 1 {
		return s
	}
	out := make([]T, 0, len(s))
	merge(parts, runs, key, func(e *T) { out = append(out, *e) })
	return out
}

// findRuns scans the concatenation of parts once and returns its natural
// runs in input order.
func findRuns[T any](parts [][]T, key func(*T) uint64) []run {
	var runs []run
	var prev uint64
	for pi, p := range parts {
		for i := range p {
			k := key(&p[i])
			if len(runs) == 0 || k < prev {
				runs = append(runs, run{key: k, seq: len(runs), part: pi, at: i})
			}
			runs[len(runs)-1].left++
			prev = k
		}
	}
	return runs
}

// merge visits the elements of runs through a min-heap ordered by (head
// key, run position). Each run is nondecreasing, so the smallest head is
// the smallest remaining element, and among equal keys the earliest run's
// elements — which precede the later runs' in the input — go first.
func merge[T any](parts [][]T, h []run, key func(*T) uint64, visit func(*T)) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i)
	}
	for len(h) > 0 {
		r := &h[0]
		visit(&parts[r.part][r.at])
		r.left--
		if r.left == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			r.at++
			for r.at == len(parts[r.part]) {
				r.part++
				r.at = 0
			}
			r.key = key(&parts[r.part][r.at])
		}
		down(h, 0)
	}
}

func less(a, b *run) bool {
	return a.key < b.key || a.key == b.key && a.seq < b.seq
}

// down restores the heap property below h[i].
func down(h []run, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && less(&h[r], &h[m]) {
			m = r
		}
		if !less(&h[m], &h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
