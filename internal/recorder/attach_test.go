package recorder

import (
	"os"
	"path/filepath"
	"testing"

	"teeperf/internal/symtab"
)

// TestSymsLoaderAdoptsRepublication: Load adopts each publication of the
// side file once, including a second publication within the same mtime
// tick (coarse-timestamp filesystems), told apart by file identity.
func TestSymsLoaderAdoptsRepublication(t *testing.T) {
	shm := filepath.Join(t.TempDir(), "app.shm")
	loader := NewSymsLoader(shm)
	if _, ok := loader.Load(); ok {
		t.Fatal("Load adopted a side file that does not exist")
	}

	first := symtab.New()
	first.MustRegister("main", 16, "main.go", 1)
	if err := WriteSymsFile(loader.Path(), first); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(loader.Path())
	if err != nil {
		t.Fatal(err)
	}
	if tab, ok := loader.Load(); !ok || tab.Len() != first.Len() {
		t.Fatalf("first publication not adopted (ok=%v)", ok)
	}
	if _, ok := loader.Load(); ok {
		t.Fatal("unchanged side file adopted twice")
	}

	second := symtab.New()
	second.MustRegister("main", 16, "main.go", 1)
	second.MustRegister("work", 16, "main.go", 10)
	if err := WriteSymsFile(loader.Path(), second); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(loader.Path(), st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}
	tab, ok := loader.Load()
	if !ok {
		t.Fatal("republication with an equal mtime not adopted")
	}
	if tab.Len() != second.Len() {
		t.Fatalf("adopted table has %d symbols, want %d", tab.Len(), second.Len())
	}
	if _, ok := loader.Load(); ok {
		t.Fatal("unchanged republication adopted twice")
	}
}
