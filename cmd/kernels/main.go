// Command kernels regenerates the benchmark experiments of Section 5 of
// the paper: the Figure 3 (Matrix Multiplication), Figure 4 (LU
// decomposition) and Figure 5 (NAS CG and BT) panel groups, and the
// Table 1 instruction-mix breakdown.
//
// Usage:
//
//	kernels -bench mm         # Figure 3
//	kernels -bench lu         # Figure 4
//	kernels -bench cg         # Figure 5, CG panels
//	kernels -bench bt         # Figure 5, BT panels
//	kernels -bench all        # all figures
//	kernels -table 1          # Table 1
//	kernels -sizes 32,64      # override the MM/LU problem sizes
//	kernels -workers 4        # bound the concurrent simulation cells
//	kernels -bench mm -observe obs/        # per-cell trace/occupancy/metrics
//	kernels -observe obs/ -observe-match tlp-fine
//
// Simulation cells fan out over -workers (default: all cores); one
// result cache spans the invocation. Output is byte-identical to
// -workers 1. With -observe, matching cells additionally write pipeline
// traces, occupancy series and metrics snapshots into the directory
// (those cells bypass the cache — a cache hit has nothing to trace).
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
	log.SetPrefix("kernels: ")
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

// benches maps the -bench spellings onto the experiments catalogue.
var benches = map[string]string{"mm": "fig3", "lu": "fig4", "cg": "fig5cg", "bt": "fig5bt"}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kernels", flag.ContinueOnError)
	bench := fs.String("bench", "", "benchmark figure to regenerate: mm, lu, cg, bt or all")
	table := fs.Int("table", 0, "table to regenerate (1)")
	sizesFlag := fs.String("sizes", "", "comma-separated MM/LU problem sizes (default: the paper's 32,64,128)")
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
		fmt.Fprintf(os.Stderr, "kernels: "+format+"\n", a...)
		fs.Usage()
		return errUsage
	}
	if *workers < 1 {
		return usage("invalid -workers %d (must be >= 1)", *workers)
	}
	sizes, err := cli.ParseSizes(*sizesFlag)
	if err != nil {
		return err
	}

	if *bench == "" && *table == 0 {
		*bench = "all"
		*table = 1
	}
	var names []string
	switch name, ok := benches[*bench]; {
	case *bench == "all":
		names = []string{"fig3", "fig4", "fig5cg", "fig5bt"}
	case ok:
		names = []string{name}
	case *bench != "":
		return usage("unknown benchmark %q", *bench)
	}
	switch *table {
	case 0:
	case 1:
		names = append(names, "table1")
	default:
		return usage("unknown table %d", *table)
	}
	cache, err := cli.OpenCache(*storeDir)
	if err != nil {
		return err
	}

	opt := experiments.Options{Workers: *workers, Cache: cache, Observe: observe()}
	for _, name := range names {
		text, err := experiments.Render(context.Background(), opt, name, experiments.Params{Sizes: sizes})
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
	}
	return nil
}
