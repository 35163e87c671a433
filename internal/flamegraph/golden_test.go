package flamegraph

// Golden-file tests pinning the renderer's exact bytes: static and
// interactive SVG, the differential SVG, the folded text, and SHA-256
// digests of both over a seeded deep-stack map. Regenerate after an
// intentional format change with:
//
//	go test ./internal/flamegraph -run TestGolden -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata golden files")

// goldenFolded exercises every branch of the frame writer: a name that
// needs HTML escaping, a frame narrower than MinFrameWidth, a label cut to
// "..", and an empty segment between two separators.
func goldenFolded() map[string]uint64 {
	return map[string]uint64{
		"main":                          40,
		"main;parse<T>&\"quote\"'s":     3000,
		"main;parse<T>&\"quote\"'s;lex": 120,
		"main;a_function_with_a_rather_long_name_that_will_not_fit_its_frame": 1500,
		"main;work":      200,
		"main;work;hot":  9000,
		"main;work;tiny": 1, // under MinFrameWidth at 600 px
		"main;;gap":      35,
		"other;x":        250,
	}
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output differs from golden (%d bytes, want %d)\n got: %.400s\nwant: %.400s",
			path, len(got), len(want), got, want)
	}
}

func TestGoldenSVG(t *testing.T) {
	for _, tc := range []struct {
		file   string
		folded map[string]uint64
		opts   SVGOptions
	}{
		{"static.svg", goldenFolded(), SVGOptions{Title: "golden <static>", Width: 600, Unit: "ns"}},
		{"interactive.svg", goldenFolded(), SVGOptions{Width: 600, Interactive: true}},
		{"empty.svg", map[string]uint64{"a": 0, "b;c": 0}, SVGOptions{Width: 300}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RenderSVG(&buf, tc.folded, tc.opts); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "testdata/"+tc.file, buf.Bytes())
		})
	}
}

func TestGoldenDiffSVG(t *testing.T) {
	before := goldenFolded()
	after := goldenFolded()
	after["main;work;hot"] = 300
	after["main;work;new<fn>"] = 500
	delete(after, "other;x")
	var buf bytes.Buffer
	if err := RenderDiffSVG(&buf, before, after, SVGOptions{Width: 600}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/diff.svg", buf.Bytes())
}

func TestGoldenFolded(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFolded(&buf, goldenFolded()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/folded.txt", buf.Bytes())
}

// deepFolded is a seeded map of stacks with depths 3 to 12. Frame j draws
// from the first 4+4j of 60 names, so stacks share prefixes the way real
// call trees do and the tree stays wide near its leaves.
func deepFolded(seed int64, stacks int) map[string]uint64 {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 60)
	for i := range names {
		names[i] = fmt.Sprintf("mod%d::fn_%02d", i%7, i)
	}
	names[5] = "std::vector<int>::push_back&"
	out := make(map[string]uint64, stacks)
	var b strings.Builder
	for len(out) < stacks {
		b.Reset()
		depth := 3 + rng.Intn(10)
		for j := 0; j < depth; j++ {
			if j > 0 {
				b.WriteByte(';')
			}
			b.WriteString(names[rng.Intn(min(len(names), 4+4*j))])
		}
		out[b.String()] += 1 + uint64(rng.Intn(1000))
	}
	return out
}

// TestGoldenDeepDigest pins the renderer on a 30K-stack map by digest:
// the outputs are megabytes, so only their SHA-256 is checked in.
func TestGoldenDeepDigest(t *testing.T) {
	folded := deepFolded(7, 30000)
	var lines strings.Builder
	digest := func(name string, render func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := render(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		fmt.Fprintf(&lines, "%s %s %d\n", hex.EncodeToString(sum[:]), name, buf.Len())
	}
	digest("folded", func(b *bytes.Buffer) error { return WriteFolded(b, folded) })
	digest("static.svg", func(b *bytes.Buffer) error { return RenderSVG(b, folded, SVGOptions{}) })
	digest("interactive.svg", func(b *bytes.Buffer) error {
		return RenderSVG(b, folded, SVGOptions{Interactive: true})
	})
	checkGolden(t, "testdata/deep.sha256", []byte(lines.String()))
}
