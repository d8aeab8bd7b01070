// Command report regenerates the complete evaluation and scores the
// reproduction against the paper's quantitative claims, printing a
// verdict table (the generated counterpart of EXPERIMENTS.md's summary).
//
// Usage:
//
//	report            # full collection (several minutes of simulation)
//	report -quick     # smaller kernel instances, streams/ablations skipped
//	report -sizes 16,32  # override the quick/full MM and LU problem sizes
//	report -verbose   # additionally print every figure and table
//	report -workers 4 # bound the concurrent simulation cells
//
// Simulation cells fan out over -workers (default: all cores); one
// result cache spans the whole collection. Output is byte-identical to
// -workers 1.
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
	"smtexplore/internal/report"
)

// errUsage marks a command-line error already reported to stderr; the
// process exits with the conventional usage status 2.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
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
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced collection: small kernels, no streams/ablations")
	sizes := fs.String("sizes", "", "comma-separated MM/LU problem sizes (overrides the -quick defaults)")
	verbose := fs.Bool("verbose", false, "also print the collected figures and tables")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation cells (must be >= 1)")
	storeDir := fs.String("store", "", "disk-backed result store directory, shared with smtd and the other CLIs")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package already reported the problem
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "report: invalid -workers %d (must be >= 1)\n", *workers)
		fs.Usage()
		return errUsage
	}

	cache, err := cli.OpenCache(*storeDir)
	if err != nil {
		return err
	}

	opt := report.Options{Workers: *workers, Cache: cache}
	if *quick {
		opt = report.Options{
			MMSizes:       []int{32, 64},
			LUSizes:       []int{32, 64},
			SkipStreams:   true,
			SkipAblations: true,
			Workers:       *workers,
			Cache:         cache,
		}
	}
	if ns, err := cli.ParseSizes(*sizes); err != nil {
		return err
	} else if ns != nil {
		opt.MMSizes, opt.LUSizes = ns, ns
	}

	d, err := report.Collect(context.Background(), opt)
	if err != nil {
		return err
	}

	if *verbose {
		if d.Fig1 != nil {
			fmt.Fprintln(out, experiments.FormatFig1(d.Fig1))
		}
		fmt.Fprintln(out, experiments.FormatKernelFigure(experiments.Title("fig3"), d.MM))
		fmt.Fprintln(out, experiments.FormatKernelFigure(experiments.Title("fig4"), d.LU))
		fmt.Fprintln(out, experiments.FormatKernelFigure(experiments.Title("fig5cg"), d.CG))
		fmt.Fprintln(out, experiments.FormatKernelFigure(experiments.Title("fig5bt"), d.BT))
		fmt.Fprintln(out, experiments.FormatTable1(d.Table1))
	}

	fmt.Fprint(out, report.Format(report.Evaluate(d)))
	return nil
}
