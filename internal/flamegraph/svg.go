package flamegraph

import (
	"bufio"
	"fmt"
	"html"
	"io"
	"strconv"
)

// SVGOptions configures RenderSVG.
type SVGOptions struct {
	// Title is the heading rendered at the top.
	Title string
	// Width is the image width in pixels (default 1200).
	Width int
	// Unit names the value unit in tooltips (default "ticks").
	Unit string
	// MinFrameWidth drops frames narrower than this many pixels
	// (default 0.25).
	MinFrameWidth float64
	// Interactive embeds click-to-zoom JavaScript (like the original
	// flamegraph.pl SVGs). The file stays self-contained.
	Interactive bool
}

const (
	frameHeight = 16
	headerSpace = 40
	footerSpace = 10
	fontSize    = 11
	// Approximate character width at fontSize, used to truncate labels.
	charWidth = 6.6
)

// RenderSVG renders folded stacks as a static, self-contained SVG flame
// graph with hover tooltips (<title> elements).
func RenderSVG(w io.Writer, folded map[string]uint64, opts SVGOptions) error {
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
		opts.Title = "TEE-Perf Flame Graph"
	}
	root, depth := build(folded)
	height := headerSpace + depth*frameHeight + footerSpace

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `<?xml version="1.0" standalone="no"?>
<svg version="1.1" width="%d" height="%d" xmlns="http://www.w3.org/2000/svg" font-family="Verdana, sans-serif">
<rect x="0" y="0" width="%d" height="%d" fill="#f8f8f8"/>
<text x="%d" y="24" font-size="15" text-anchor="middle" fill="#333">%s</text>
`, opts.Width, height, opts.Width, height, opts.Width/2, html.EscapeString(opts.Title))

	if root.Total > 0 {
		r := &svgRenderer{
			bw:    bw,
			total: root.Total,
			scale: float64(opts.Width-20) / float64(root.Total),
			opts:  opts,
			unit:  html.EscapeString(opts.Unit),
			// Frames grow upward from the bottom, root at the bottom row.
			baseY:  height - footerSpace - frameHeight,
			styles: make(map[string]nameStyle),
		}
		r.frame(root, 10, 0)
		if opts.Interactive {
			writeZoomScript(bw, opts.Width)
		}
	} else {
		fmt.Fprintf(bw, `<text x="%d" y="%d" font-size="12" text-anchor="middle" fill="#777">no samples</text>`+"\n",
			opts.Width/2, height/2)
	}

	fmt.Fprint(bw, "</svg>\n")
	return bw.Flush()
}

// svgRenderer writes frames without fmt: each frame is appended to one
// reused byte buffer, and a name's escaped form and color are computed on
// its first frame only.
type svgRenderer struct {
	bw     *bufio.Writer
	buf    []byte
	total  uint64
	scale  float64
	opts   SVGOptions
	unit   string // HTML-escaped
	baseY  int
	styles map[string]nameStyle
}

// nameStyle is a frame name's HTML-escaped form and fill color.
type nameStyle struct {
	esc, fill string
}

func (r *svgRenderer) style(name string) nameStyle {
	st, ok := r.styles[name]
	if !ok {
		st = nameStyle{esc: html.EscapeString(name), fill: colorFor(name)}
		r.styles[name] = st
	}
	return st
}

// frame draws node at horizontal offset x (pixels) and the given depth,
// then recurses into children left to right.
func (r *svgRenderer) frame(n *Node, x float64, depth int) {
	w := float64(n.Total) * r.scale
	if w < r.opts.MinFrameWidth {
		return
	}
	y := r.baseY - depth*frameHeight
	pct := 100 * float64(n.Total) / float64(r.total)
	st := r.style(n.Name)

	b := append(r.buf[:0], "<g"...)
	if r.opts.Interactive {
		// Data attributes carry the tick-domain geometry the zoom script
		// rescales from.
		b = append(b, ` class="fg" data-x="`...)
		b = appendFixed(b, x)
		b = append(b, `" data-w="`...)
		b = appendFixed(b, w)
		b = append(b, `" data-d="`...)
		b = strconv.AppendInt(b, int64(depth), 10)
		b = append(b, `" data-n="`...)
		b = append(b, st.esc...)
		b = append(b, '"')
	}
	// The tooltip "name (total unit, pct%)", escaped piecewise: escaping
	// works per character, and digits, spaces and punctuation pass as is.
	b = append(b, "><title>"...)
	b = append(b, st.esc...)
	b = append(b, " ("...)
	b = strconv.AppendUint(b, n.Total, 10)
	b = append(b, ' ')
	b = append(b, r.unit...)
	b = append(b, ", "...)
	b = appendFixed(b, pct)
	b = append(b, "%)</title>"...)
	b = appendBox(b, n.Name, st.esc, st.fill, x, y, w)
	r.bw.Write(b)
	r.buf = b

	cx := x
	for _, c := range n.Children {
		r.frame(c, cx, depth+1)
		cx += float64(c.Total) * r.scale
	}
}

// appendFixed appends v formatted like fmt's %.2f.
func appendFixed(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'f', 2, 64)
}

// appendBox appends a frame's rectangle, its label when one fits, and the
// end of its group. esc is name HTML-escaped.
func appendBox(b []byte, name, esc, fill string, x float64, y int, w float64) []byte {
	b = append(b, `<rect x="`...)
	b = appendFixed(b, x)
	b = append(b, `" y="`...)
	b = strconv.AppendInt(b, int64(y), 10)
	b = append(b, `" width="`...)
	b = appendFixed(b, w)
	b = append(b, `" height="`...)
	b = strconv.AppendInt(b, frameHeight-1, 10)
	b = append(b, `" fill="`...)
	b = append(b, fill...)
	b = append(b, `" rx="1"/>`...)
	if label := fitLabel(name, w); label != "" {
		if label != name {
			esc = html.EscapeString(label)
		}
		b = append(b, `<text x="`...)
		b = appendFixed(b, x+3)
		b = append(b, `" y="`...)
		b = strconv.AppendInt(b, int64(y+frameHeight-5), 10)
		b = append(b, `" font-size="`...)
		b = strconv.AppendInt(b, fontSize, 10)
		b = append(b, `" fill="#222">`...)
		b = append(b, esc...)
		b = append(b, "</text>"...)
	}
	return append(b, "</g>\n"...)
}

// fitLabel truncates a name to fit a frame of pixel width w.
func fitLabel(name string, w float64) string {
	maxChars := int((w - 6) / charWidth)
	if maxChars < 3 {
		return ""
	}
	if len(name) <= maxChars {
		return name
	}
	return name[:maxChars-2] + ".."
}

// colorFor picks a deterministic warm color per function name, in the
// traditional flame palette.
func colorFor(name string) string {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	red := 205 + int(h%50)
	green := 50 + int((h>>8)%150)
	blue := int((h >> 16) % 40)
	return rgb(red, green, blue)
}

// rgb renders an SVG color as "rgb(r,g,b)".
func rgb(red, green, blue int) string {
	b := make([]byte, 0, len("rgb(255,255,255)"))
	b = append(b, "rgb("...)
	b = strconv.AppendInt(b, int64(red), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(green), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(blue), 10)
	return string(append(b, ')'))
}

// writeZoomScript embeds the click-to-zoom behaviour: clicking a frame
// rescales every frame relative to it (descendants expand, unrelated
// frames collapse), clicking the background resets. Text labels are
// refitted after each zoom.
func writeZoomScript(bw *bufio.Writer, width int) {
	fmt.Fprintf(bw, `<script><![CDATA[
(function() {
  var W = %d - 20, PAD = 10, CW = %.2f;
  var frames = [];
  var gs = document.querySelectorAll("g.fg");
  for (var i = 0; i < gs.length; i++) {
    var g = gs[i];
    frames.push({
      g: g,
      rect: g.querySelector("rect"),
      text: g.querySelector("text"),
      x: parseFloat(g.getAttribute("data-x")),
      w: parseFloat(g.getAttribute("data-w")),
      d: parseInt(g.getAttribute("data-d"), 10),
      n: g.getAttribute("data-n")
    });
    g.style.cursor = "pointer";
    g.addEventListener("click", (function(f) {
      return function(ev) { zoom(f); ev.stopPropagation(); };
    })(frames[i]));
  }
  function fit(f, w) {
    if (!f.text) return;
    var max = Math.floor((w - 6) / CW);
    if (max < 3) { f.text.textContent = ""; return; }
    f.text.textContent = f.n.length <= max ? f.n : f.n.slice(0, max - 2) + "..";
  }
  function zoom(target) {
    var scale = W / target.w;
    for (var i = 0; i < frames.length; i++) {
      var f = frames[i];
      var inside = f.x >= target.x - 0.01 && f.x + f.w <= target.x + target.w + 0.01;
      var isAncestor = f.d <= target.d && f.x <= target.x + 0.01 && f.x + f.w >= target.x + target.w - 0.01;
      var nx, nw;
      if (inside || isAncestor) {
        nx = isAncestor ? PAD : PAD + (f.x - target.x) * scale;
        nw = isAncestor ? W : f.w * scale;
        f.g.style.display = "";
        f.rect.setAttribute("x", nx.toFixed(2));
        f.rect.setAttribute("width", Math.max(nw, 0.5).toFixed(2));
        if (f.text) f.text.setAttribute("x", (nx + 3).toFixed(2));
        fit(f, nw);
      } else {
        f.g.style.display = "none";
      }
    }
  }
  function reset() {
    for (var i = 0; i < frames.length; i++) {
      var f = frames[i];
      f.g.style.display = "";
      f.rect.setAttribute("x", f.x.toFixed(2));
      f.rect.setAttribute("width", f.w.toFixed(2));
      if (f.text) f.text.setAttribute("x", (f.x + 3).toFixed(2));
      fit(f, f.w);
    }
  }
  document.documentElement.addEventListener("click", reset);
})();
]]></script>
`, width, charWidth)
}
