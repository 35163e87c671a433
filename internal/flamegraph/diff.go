package flamegraph

import (
	"bufio"
	"fmt"
	"html"
	"io"
	"sort"
	"strings"
)

// DiffNode is one frame in a merged differential flame graph: the same
// frame tree as Node, carrying both profiles' inclusive values. Layout
// width is Before+After (additive down the tree, so frames always contain
// their children), while color encodes the share delta — a frame present in
// only one profile still gets drawn, unlike after-only differential
// layouts.
type DiffNode struct {
	// Name is the frame's function name.
	Name string
	// Before and After are the inclusive values from each profile.
	Before, After uint64
	// SelfBefore and SelfAfter are the values attributed directly here.
	SelfBefore, SelfAfter uint64
	// Children are sorted by name for deterministic layout.
	Children []*DiffNode
}

// BuildDiff merges two folded-stack maps into one differential tree rooted
// at a synthetic "all" frame. Like Build, the tree does not depend on map
// order.
func BuildDiff(before, after map[string]uint64) *DiffNode {
	root := &DiffNode{Name: RootName}
	for stack, b := range before {
		root.add(stack, b, after[stack])
	}
	for stack, a := range after {
		if _, ok := before[stack]; !ok {
			root.add(stack, 0, a)
		}
	}
	return root
}

// add merges one stack's before and after values into the tree under n.
func (n *DiffNode) add(stack string, b, a uint64) {
	if stack == "" || (b == 0 && a == 0) {
		return
	}
	n.Before += b
	n.After += a
	node := n
	for rest := stack; ; {
		name := rest
		i := strings.IndexByte(rest, ';')
		if i >= 0 {
			name, rest = rest[:i], rest[i+1:]
		}
		node = node.child(name)
		node.Before += b
		node.After += a
		if i < 0 {
			break
		}
	}
	node.SelfBefore += b
	node.SelfAfter += a
}

func (n *DiffNode) child(name string) *DiffNode {
	i := sort.Search(len(n.Children), func(i int) bool { return n.Children[i].Name >= name })
	if i < len(n.Children) && n.Children[i].Name == name {
		return n.Children[i]
	}
	c := &DiffNode{Name: name}
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = c
	return c
}

// Depth returns the maximum frame depth below (and including) n.
func (n *DiffNode) Depth() int {
	max := 1
	for _, c := range n.Children {
		if d := c.Depth() + 1; d > max {
			max = d
		}
	}
	return max
}

// width is the layout metric: additive, and nonzero for frames present in
// either profile.
func (n *DiffNode) width() uint64 { return n.Before + n.After }

// RenderDiffSVG renders a differential flame graph: frame width is the
// combined Before+After weight, frame color the change in inclusive share
// between the profiles (red grew, blue shrank, gray unchanged). Shares are
// per-profile fractions, so recordings of different lengths compare
// meaningfully.
func RenderDiffSVG(w io.Writer, before, after map[string]uint64, opts SVGOptions) error {
	if opts.Width <= 0 {
		opts.Width = 1200
	}
	if opts.Unit == "" {
		opts.Unit = "ticks"
	}
	if opts.MinFrameWidth <= 0 {
		opts.MinFrameWidth = 0.25
	}
	if opts.Title == "" {
		opts.Title = "TEE-Perf Differential Flame Graph"
	}
	root := BuildDiff(before, after)
	depth := root.Depth()
	height := headerSpace + depth*frameHeight + footerSpace

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `<?xml version="1.0" standalone="no"?>
<svg version="1.1" width="%d" height="%d" xmlns="http://www.w3.org/2000/svg" font-family="Verdana, sans-serif">
<rect x="0" y="0" width="%d" height="%d" fill="#f8f8f8"/>
<text x="%d" y="24" font-size="15" text-anchor="middle" fill="#333">%s</text>
<text x="10" y="24" font-size="11" fill="#c00">red = grew</text>
<text x="%d" y="24" font-size="11" text-anchor="end" fill="#00c">blue = shrank</text>
`, opts.Width, height, opts.Width, height, opts.Width/2, html.EscapeString(opts.Title), opts.Width-10)

	if root.width() > 0 {
		r := &diffRenderer{
			bw:          bw,
			scale:       float64(opts.Width-20) / float64(root.width()),
			totalBefore: root.Before,
			totalAfter:  root.After,
			opts:        opts,
			baseY:       height - footerSpace - frameHeight,
		}
		r.frame(root, 10, 0)
	} else {
		fmt.Fprintf(bw, `<text x="%d" y="%d" font-size="12" text-anchor="middle" fill="#777">no samples</text>`+"\n",
			opts.Width/2, height/2)
	}

	fmt.Fprint(bw, "</svg>\n")
	return bw.Flush()
}

type diffRenderer struct {
	bw          *bufio.Writer
	buf         []byte
	scale       float64
	totalBefore uint64
	totalAfter  uint64
	opts        SVGOptions
	baseY       int
}

// shareDelta is the frame's inclusive-share change between profiles, each
// side normalized by its own total (an empty side contributes share 0).
func (r *diffRenderer) shareDelta(n *DiffNode) float64 {
	var sb, sa float64
	if r.totalBefore > 0 {
		sb = float64(n.Before) / float64(r.totalBefore)
	}
	if r.totalAfter > 0 {
		sa = float64(n.After) / float64(r.totalAfter)
	}
	return sa - sb
}

func (r *diffRenderer) frame(n *DiffNode, x float64, depth int) {
	w := float64(n.width()) * r.scale
	if w < r.opts.MinFrameWidth {
		return
	}
	y := r.baseY - depth*frameHeight
	delta := r.shareDelta(n)
	tooltip := fmt.Sprintf("%s (before %d, after %d %s, %+.2f%%)",
		n.Name, n.Before, n.After, r.opts.Unit, 100*delta)

	b := append(r.buf[:0], "<g><title>"...)
	b = append(b, html.EscapeString(tooltip)...)
	b = append(b, "</title>"...)
	b = appendBox(b, n.Name, html.EscapeString(n.Name), diffColor(delta), x, y, w)
	r.bw.Write(b)
	r.buf = b

	cx := x
	for _, c := range n.Children {
		r.frame(c, cx, depth+1)
		cx += float64(c.width()) * r.scale
	}
}

// diffColor maps a share delta to the differential palette: white-to-red
// for growth, white-to-blue for shrinkage, saturating at a 10-point share
// swing; near-zero deltas render gray.
func diffColor(delta float64) string {
	const saturation = 0.10
	mag := delta
	if mag < 0 {
		mag = -mag
	}
	if mag < 0.0005 {
		return "rgb(224,224,224)"
	}
	t := mag / saturation
	if t > 1 {
		t = 1
	}
	level := 230 - int(170*t)
	if delta > 0 {
		return rgb(240, level, level)
	}
	return rgb(level, level, 240)
}
