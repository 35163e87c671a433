package analyzer

import (
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// frame is one open call on a reconstructed stack.
type frame struct {
	addr       uint64
	start      uint64
	childTicks uint64
	// id is what the sink's opened returned for the frame: its node in the
	// thread's call-path table offline, its function index live. The sink
	// resolves the name through it.
	id int
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

// frameSink names the frames a threadStack opens and receives every frame
// it closes. opened returns the id of a frame for addr called beneath the
// frame whose id is parent (0 for a root). closed gets under, the frames
// beneath the closed one, outermost first, so len(under) is its depth. The
// frame travels by value so that it stays off the heap.
type frameSink interface {
	opened(parent int, addr uint64) int
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
func (ts *threadStack) feed(e shmlog.Entry, sink frameSink) bool {
	ts.events++
	ts.lastTS = e.Counter
	switch e.Kind {
	case shmlog.KindCall:
		ts.stack = append(ts.stack, frame{addr: e.Addr, start: e.Counter, id: sink.opened(ts.topID(), e.Addr)})
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

// topID is the id of the top open frame, 0 on an empty stack.
func (ts *threadStack) topID() int {
	if d := len(ts.stack); d > 0 {
		return ts.stack[d-1].id
	}
	return 0
}

// pathTable interns one thread's call paths so that the offline analyzer
// resolves each name and builds each folded key once per distinct path
// instead of once per call. Node 0 is the thread's root and has an empty
// name; every other node is one (parent, address) edge, carries its
// resolved name and the raw totals of the executions that closed on
// exactly that path. Parents precede their children in nodes.
type pathTable struct {
	nodes []pathNode
	edges map[pathEdge]int
}

type pathNode struct {
	name      string
	addr      uint64
	parent    int
	lastChild int // the child found by the latest lookup, 0 for none
	synthetic bool
	// folded marks a path registered in the folded map: one of its
	// executions had self time, or it is the zero-width TruncatedFrameName.
	folded            bool
	calls, incl, self uint64
}

// pathEdge keys a child node. Synthetic TruncatedFrameName records share
// one node per parent, whatever their address: they share its key.
type pathEdge struct {
	parent    int
	addr      uint64
	synthetic bool
}

func newPathTable() pathTable {
	return pathTable{nodes: make([]pathNode, 1, 64), edges: make(map[pathEdge]int)}
}

// child returns the node for addr called on the path parent, adding it on
// first use. Only a new node resolves its name: through tab, or as
// TruncatedFrameName when synthetic. Loops and repeated calls mostly hit
// the parent's last child before the map.
func (pt *pathTable) child(parent int, addr uint64, synthetic bool, tab *symtab.Table) int {
	if c := pt.nodes[parent].lastChild; c != 0 {
		if n := &pt.nodes[c]; n.addr == addr && n.synthetic == synthetic {
			return c
		}
	}
	e := pathEdge{parent: parent, addr: addr, synthetic: synthetic}
	c, ok := pt.edges[e]
	if !ok {
		name := TruncatedFrameName
		if !synthetic {
			name = tab.Name(addr)
		}
		c = len(pt.nodes)
		pt.nodes = append(pt.nodes, pathNode{name: name, addr: addr, parent: parent, synthetic: synthetic})
		pt.edges[e] = c
	}
	pt.nodes[parent].lastChild = c
	return c
}
