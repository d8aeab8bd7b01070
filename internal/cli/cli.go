// Package cli holds the flag plumbing the experiment CLIs (streams,
// kernels, ablate, report) share.
package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"smtexplore/internal/experiments"
	"smtexplore/internal/runner"
	"smtexplore/internal/store"
)

// ObserveFlags registers -observe and -observe-match on fs and returns
// the artifact sink they describe once fs is parsed (nil without
// -observe).
func ObserveFlags(fs *flag.FlagSet) func() *experiments.Observe {
	dir := fs.String("observe", "", "write per-cell trace/occupancy/metrics artifacts into this directory")
	match := fs.String("observe-match", "", "observe only cells whose label contains this substring")
	return func() *experiments.Observe {
		if *dir == "" {
			return nil
		}
		ob := &experiments.Observe{Dir: *dir}
		if *match != "" {
			ob.Match = experiments.MatchSubstring(*match)
		}
		return ob
	}
}

// ParseSizes parses a comma-separated size list ("32,64"); empty input
// is nil, meaning the defaults.
func ParseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// OpenCache returns the invocation's result cache, layered over the
// disk store in storeDir when one is given.
func OpenCache(storeDir string) (*runner.Cache, error) {
	cache := runner.NewCache()
	if storeDir != "" {
		st, err := store.Open(storeDir, 0)
		if err != nil {
			return nil, err
		}
		cache.WithTier(st)
	}
	return cache, nil
}
