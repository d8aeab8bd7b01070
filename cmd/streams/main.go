// Command streams regenerates the synthetic-stream experiments of
// Section 4 of the paper: Figure 1 (average CPI per stream under TLP×ILP
// execution modes) and Figure 2 (pairwise co-execution slowdown factors).
//
// Usage:
//
//	streams -fig 1          # Figure 1
//	streams -fig 2a         # FP × FP slowdown matrix
//	streams -fig 2b         # int × int slowdown matrix
//	streams -fig 2c         # fp-arith × int-arith matrix
//	streams -fig all        # everything
//	streams -workers 4      # bound the concurrent simulation cells
//	streams -fig 1 -observe obs/ -observe-match fadd
//
// Simulation cells fan out over -workers (default: all cores); one
// result cache spans the invocation, so baselines shared between
// figures simulate once. Output is byte-identical to -workers 1. With
// -observe, matching cells additionally write pipeline traces, occupancy
// series and metrics snapshots into the directory (those cells bypass
// the cache — a cache hit has nothing to trace).
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

	"smtexplore/internal/cli"
	"smtexplore/internal/experiments"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("streams: ")
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

// figures maps the -fig spellings onto the experiments catalogue.
var figures = map[string]string{"1": "fig1", "2a": "fig2a", "2b": "fig2b", "2c": "fig2c"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("streams", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: 1, 2a, 2b, 2c or all")
	full := fs.Bool("full", false, "Figure 1 over all stream kinds, not just the paper's selection")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation cells (must be >= 1)")
	storeDir := fs.String("store", "", "disk-backed result store directory, shared with smtd and the other CLIs")
	observe := cli.ObserveFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}
	usage := func(format string, a ...any) error {
		fmt.Fprintf(os.Stderr, "streams: "+format+"\n", a...)
		fs.Usage()
		return errUsage
	}
	if *workers < 1 {
		return usage("invalid -workers %d (must be >= 1)", *workers)
	}
	names := []string{"fig1", "fig2a", "fig2b", "fig2c"}
	if *fig != "all" {
		name, ok := figures[*fig]
		if !ok {
			return usage("unknown figure %q", *fig)
		}
		names = []string{name}
	}
	cache, err := cli.OpenCache(*storeDir)
	if err != nil {
		return err
	}

	opt := experiments.Options{Workers: *workers, Cache: cache, Observe: observe()}
	for _, name := range names {
		text, err := experiments.Render(context.Background(), opt, name, experiments.Params{AllKinds: *full})
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
	}
	return nil
}
