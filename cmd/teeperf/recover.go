package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"teeperf/internal/analyzer"
	"teeperf/internal/recorder"
	"teeperf/internal/shmlog"
	"teeperf/internal/symtab"
)

// cmdRecover salvages a torn or corrupted profile bundle — typically the
// .part file a killed checkpoint pass left behind, or a bundle damaged on
// disk — into a clean one, printing the structured recovery report:
//
//	teeperf recover -i run.teeperf.part -o run.teeperf
func cmdRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ContinueOnError)
	input := fs.String("i", "", "torn/corrupted bundle path")
	output := fs.String("o", "", "write the salvaged clean bundle here (optional)")
	top := fs.Int("top", 10, "hot functions of the salvaged profile to show (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		return fmt.Errorf("missing -i <bundle>")
	}
	f, err := os.Open(*input)
	if err != nil {
		return err
	}
	defer f.Close()

	tab, log, rep, err := recorder.ReadBundleLenient(f)
	rawShm := false
	if err != nil && errors.Is(err, recorder.ErrBadBundle) {
		// Not a bundle — maybe a raw shared-mapping file (`teeperf run
		// -keep-shm`, or the .shm a dead recorder process left behind).
		// The mapping is a bare log image; salvage it directly and
		// resolve names through the symbol side file published next to
		// it, if it survived.
		if _, serr := f.Seek(0, io.SeekStart); serr == nil {
			if rlog, rrep, rerr := shmlog.ReadLenient(f); rerr == nil {
				log, rep, rawShm, err = rlog, rrep, true, nil
				tab, _ = recorder.ReadSymsFile(recorder.SymsPath(*input))
				if tab == nil {
					tab = symtab.New() // addresses print raw
					fmt.Fprintf(os.Stderr, "teeperf recover: no symbol side file %s; reporting raw addresses\n",
						recorder.SymsPath(*input))
				}
			}
		}
	}
	if err != nil {
		return fmt.Errorf("recover %s: %w", *input, err)
	}
	fmt.Printf("%s: %s\n", *input, rep)
	if rep.Clean() && !rawShm {
		// An intact bundle needs no salvage; failing here (exit 1) keeps
		// scripted pipelines from silently "recovering" good data. A raw
		// mapping file is different: even a clean one is not loadable by
		// analyze, so recovering it (into a proper bundle with -o) is the
		// point.
		return fmt.Errorf("%s is intact; nothing to recover (use teeperf analyze)", *input)
	}

	p, err := analyzer.AnalyzeRecovered(log, tab, rep)
	if err != nil {
		return err
	}
	fmt.Printf("recovered profile: %d entries, %d threads, %d completed calls, %d truncated, %d unmatched\n",
		log.Len(), len(p.Threads()), len(p.Records()), p.Truncated, p.Unmatched)
	if *top > 0 && len(p.Records()) > 0 {
		fmt.Println()
		if err := p.WriteTable(os.Stdout, *top); err != nil {
			return err
		}
	}

	if *output != "" {
		if err := recorder.WriteBundleFile(*output, tab, log); err != nil {
			return err
		}
		fmt.Printf("wrote clean bundle %s\n", *output)
	}
	return nil
}
