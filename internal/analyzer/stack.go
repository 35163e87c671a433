package analyzer

import (
	"strings"

	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// frame is one open call on a reconstructed stack.
type frame struct {
	addr       uint64
	name       string
	start      uint64
	childTicks uint64
}

// closedFrame is one execution a threadStack completed, in raw ticks.
type closedFrame struct {
	frame
	// end is the counter value the frame closed at. incl is end-start and
	// self is incl minus its children's inclusive time; neither is ever
	// negative.
	end, incl, self uint64
	// truncated marks a frame force-closed by closeAll.
	truncated bool
}

// frameSink receives every frame a threadStack closes. under holds the
// frames beneath it, outermost first, so len(under) is its depth. The
// frame travels by value so that it stays off the heap.
type frameSink interface {
	closed(f closedFrame, under []frame)
}

// threadStack rebuilds one thread's call stack from its entry stream. It is
// the package's only stack machine: AnalyzeWith feeds it a thread's entries
// and force-closes what is left at the log's end, Incremental feeds it live,
// and Incremental.Snapshot force-closes a copy. Its arithmetic stays in raw
// ticks, so childTicks subtracts like from like; sinks apply the sampling
// period.
type threadStack struct {
	id        uint64
	stack     []frame
	lastTS    uint64
	events    int
	maxDepth  int
	calls     uint64 // closed frames
	rootTicks uint64 // inclusive ticks of closed root frames
	unmatched int    // returns with no open frame
}

// feed folds one entry into the stack and hands each frame it closes to
// sink. It reports false for a return that matches no open frame; that
// return is counted in unmatched and otherwise skipped.
func (ts *threadStack) feed(e shmlog.Entry, tab *symtab.Table, sink frameSink) bool {
	ts.events++
	ts.lastTS = e.Counter
	switch e.Kind {
	case shmlog.KindCall:
		ts.stack = append(ts.stack, frame{addr: e.Addr, name: tab.Name(e.Addr), start: e.Counter})
		if d := len(ts.stack); d > ts.maxDepth {
			ts.maxDepth = d
		}
	case shmlog.KindReturn:
		// Pop frames until the one matching the return closes. Frames above
		// the match lost their return entries (recording was toggled or the
		// log overflowed); they close at the return's counter value.
		for i := len(ts.stack) - 1; i >= 0; i-- {
			if ts.stack[i].addr == e.Addr {
				for len(ts.stack) > i {
					ts.closeTop(e.Counter, false, sink)
				}
				return true
			}
		}
		ts.unmatched++
		return false
	}
	return true
}

// closeAll force-closes every open frame at the thread's last observed
// counter value and returns how many it closed. These durations are
// approximate.
func (ts *threadStack) closeAll(sink frameSink) int {
	n := len(ts.stack)
	for len(ts.stack) > 0 {
		ts.closeTop(ts.lastTS, true, sink)
	}
	return n
}

// closeTop completes the top frame at counter value now. Its inclusive time
// becomes child time of the frame beneath it, or root time of the thread.
func (ts *threadStack) closeTop(now uint64, truncated bool, sink frameSink) {
	depth := len(ts.stack) - 1
	c := closedFrame{frame: ts.stack[depth], end: now, truncated: truncated}
	if now > c.start {
		c.incl = now - c.start
	}
	if c.incl > c.childTicks {
		c.self = c.incl - c.childTicks
	}
	ts.stack = ts.stack[:depth]
	if depth > 0 {
		ts.stack[depth-1].childTicks += c.incl
	} else {
		ts.rootTicks += c.incl
	}
	ts.calls++
	sink.closed(c, ts.stack)
}

// foldKey is the folded-stack key of leaf called from under: the frame
// names joined by ';', outermost first. A root's key is its name, uncopied.
func foldKey(under []frame, leaf string) string {
	if len(under) == 0 {
		return leaf
	}
	n := len(under) + len(leaf)
	for i := range under {
		n += len(under[i].name)
	}
	var b strings.Builder
	b.Grow(n)
	for i := range under {
		b.WriteString(under[i].name)
		b.WriteByte(';')
	}
	b.WriteString(leaf)
	return b.String()
}
