// Package flamegraph implements TEE-Perf's stage 4: visualization of the
// analyzer output as Flame Graphs. It supports the standard folded-stack
// text format (interoperable with Brendan Gregg's tooling, which the paper
// integrates) and renders self-contained SVG flame graphs.
package flamegraph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Node is one frame in the merged flame graph tree.
type Node struct {
	// Name is the frame's function name.
	Name string
	// Total is the inclusive value (self + descendants).
	Total uint64
	// Self is the value attributed directly to this frame.
	Self uint64
	// Children are sorted by name for deterministic layout.
	Children []*Node
}

// ErrBadFolded is returned when parsing malformed folded-stack input.
var ErrBadFolded = errors.New("flamegraph: bad folded line")

// RootName is the synthetic root frame of every tree.
const RootName = "all"

// Build merges folded stacks ("a;b;c" -> value) into a tree rooted at a
// synthetic "all" frame. The tree does not depend on map order: children
// are kept sorted by name and totals are sums.
func Build(folded map[string]uint64) *Node {
	root, _ := build(folded)
	return root
}

// build is Build that also returns the tree's Depth, counted on the way.
func build(folded map[string]uint64) (*Node, int) {
	root := &Node{Name: RootName}
	depth := 1
	var a arena
	for stack, v := range folded {
		if v == 0 || stack == "" {
			continue
		}
		root.Total += v
		node, d := root, 1
		for rest := stack; ; d++ {
			name := rest
			i := strings.IndexByte(rest, ';')
			if i >= 0 {
				name, rest = rest[:i], rest[i+1:]
			}
			node = node.child(name, &a)
			node.Total += v
			if i < 0 {
				break
			}
		}
		node.Self += v
		depth = max(depth, d+1)
	}
	return root, depth
}

// arena hands out nodes, and the one-element child lists most nodes keep,
// from slabs instead of one allocation each.
type arena struct {
	nodes []Node
	kids  []*Node
}

// child returns n's child named name, inserting it in name order on first
// use.
func (n *Node) child(name string, a *arena) *Node {
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Name >= name })
	if i < len(n.Children) && n.Children[i].Name == name {
		return n.Children[i]
	}
	if len(a.nodes) == 0 {
		a.nodes = make([]Node, 256)
	}
	c := &a.nodes[0]
	a.nodes = a.nodes[1:]
	c.Name = name
	if n.Children == nil {
		if len(a.kids) == 0 {
			a.kids = make([]*Node, 256)
		}
		n.Children = a.kids[:1:1]
		a.kids = a.kids[1:]
		n.Children[0] = c
		return c
	}
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
	return c
}

// Depth returns the maximum frame depth below (and including) n.
func (n *Node) Depth() int {
	max := 1
	for _, c := range n.Children {
		if d := c.Depth() + 1; d > max {
			max = d
		}
	}
	return max
}

// Find returns the descendant (or n itself) with the given name, walking
// depth-first.
func (n *Node) Find(name string) *Node {
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if found := c.Find(name); found != nil {
			return found
		}
	}
	return nil
}

// WriteFolded emits folded stacks in the canonical text format, sorted for
// deterministic output.
func WriteFolded(w io.Writer, folded map[string]uint64) error {
	type line struct {
		stack string
		value uint64
	}
	lines := make([]line, 0, len(folded))
	for k, v := range folded {
		lines = append(lines, line{k, v})
	}
	slices.SortFunc(lines, func(a, b line) int { return strings.Compare(a.stack, b.stack) })
	bw := bufio.NewWriter(w)
	var num [20]byte
	for _, l := range lines {
		bw.WriteString(l.stack)
		bw.WriteByte(' ')
		bw.Write(strconv.AppendUint(num[:0], l.value, 10))
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadFolded parses folded-stack text: "frame;frame;frame value" per line.
func ReadFolded(r io.Reader) (map[string]uint64, error) {
	out := make(map[string]uint64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("%w %d: %q", ErrBadFolded, lineNo, line)
		}
		v, err := strconv.ParseUint(line[sp+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w %d: value: %v", ErrBadFolded, lineNo, err)
		}
		out[line[:sp]] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flamegraph: read folded: %w", err)
	}
	return out, nil
}
