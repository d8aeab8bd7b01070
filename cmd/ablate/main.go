// Command ablate runs the design-choice ablation studies of the
// reproduction: the §3.1 synchronisation-primitive comparison (raw spin
// vs pause-augmented spin vs halt), the §3.2 precomputation-span sweep,
// and the §5.3 static-vs-shared resource-partitioning contrast.
//
// Usage:
//
//	ablate -study sync|span|partition|selective|all
//	ablate -workers 4      # bound the concurrent simulation cells
//	ablate -store cells/   # reuse the disk-backed result store
//
// Simulation cells fan out over -workers (default: all cores); one
// result cache spans the invocation, so configurations repeated across
// studies (e.g. the default MM prefetch cell) simulate once. Output is
// byte-identical to -workers 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"slices"

	"smtexplore/internal/cli"
	"smtexplore/internal/experiments"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablate: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ablate", flag.ContinueOnError)
	study := fs.String("study", "all", "study to run: sync, span, partition, selective or all")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation cells (must be >= 1)")
	storeDir := fs.String("store", "", "disk-backed result store directory, shared with smtd and the other CLIs")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}
	usage := func(format string, a ...any) error {
		fmt.Fprintf(os.Stderr, "ablate: "+format+"\n", a...)
		fs.Usage()
		return errUsage
	}
	if *workers < 1 {
		return usage("invalid -workers %d (must be >= 1)", *workers)
	}
	// The -study spellings are the catalogue names themselves.
	names := []string{"sync", "span", "partition", "selective"}
	if *study != "all" {
		if !slices.Contains(names, *study) {
			return usage("unknown study %q", *study)
		}
		names = []string{*study}
	}
	cache, err := cli.OpenCache(*storeDir)
	if err != nil {
		return err
	}

	opt := experiments.Options{Workers: *workers, Cache: cache}
	for _, name := range names {
		text, err := experiments.Render(context.Background(), opt, name, experiments.Params{})
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
	}
	return nil
}
