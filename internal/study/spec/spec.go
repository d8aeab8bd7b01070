// Package spec parses and validates declarative study specifications.
//
// A study spec names a set of sweeps — stream grids, kernel grids or
// whole named harnesses — plus scheduling hints (priority, deadline)
// and an admission budget. It is deliberately a plain data shape: the
// compile package lowers it into content-keyed cells, so everything
// here is checkable without running a single simulation.
//
// Specs are written either as bare JSON or as a Markdown document whose
// first ```json fenced code block holds the JSON (prose around the
// block is the study's human-readable motivation; a leading "# " line
// becomes the title when the JSON sets none).
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"smtexplore/internal/experiments"
	"smtexplore/internal/kernels"
	"smtexplore/internal/streams"
)

// Sweep kinds.
const (
	KindStream  = "stream"
	KindKernel  = "kernel"
	KindHarness = "harness"
)

// Table styles. Each sweep synthesizes one result table; the style
// picks the formatter (and therefore the cell grid the sweep needs).
const (
	// TableFig1 renders solo-vs-duo CPI per stream×ILP, byte-identical
	// to `streams -fig 1` when the sweep mirrors the paper's grid.
	TableFig1 = "fig1"
	// TableFig2 renders the pairwise co-execution slowdown matrix,
	// byte-identical to `streams -fig 2a/2b/2c` for the paper's sets.
	TableFig2 = "fig2"
	// TableKernel renders the four-panel kernel figure, byte-identical
	// to `kernels -bench` for the paper's sweeps.
	TableKernel = "kernel"
	// TableText passes harness-cell output through verbatim (already
	// byte-identical to the corresponding CLI by construction).
	TableText = "text"
)

// Budget bounds what a study may simulate. Zero values mean unlimited.
// Warm cells (already in the store) are free; the budget admits cold
// work only.
type Budget struct {
	// Cycles caps the estimated simulated cycles of admitted cold cells.
	Cycles uint64 `json:"cycles,omitempty"`
	// Cells caps the number of admitted cold cells.
	Cells int `json:"cells,omitempty"`
}

// Sweep is one experiment grid of a study. Exactly the fields of its
// Kind are consulted.
type Sweep struct {
	// Name identifies the sweep (and its table file) within the study.
	Name string `json:"name"`
	// Kind is "stream", "kernel" or "harness".
	Kind string `json:"kind"`
	// Table picks the synthesis style; empty means the kind's default
	// (stream→fig1, kernel→kernel, harness→text).
	Table string `json:"table,omitempty"`
	// Title overrides the table heading for fig2/kernel tables.
	Title string `json:"title,omitempty"`

	// Streams (stream sweeps) are the swept stream kinds; for fig2
	// tables they are the matrix subjects.
	Streams []string `json:"streams,omitempty"`
	// Partners (fig2 tables) are the matrix partners; empty means the
	// subject set.
	Partners []string `json:"partners,omitempty"`
	// ILP lists the swept ILP degrees ("min", "med", "max"); empty
	// means all three, in the paper's order.
	ILP []string `json:"ilp,omitempty"`
	// Threads (fig1 tables) lists the co-executed copy counts; empty
	// means [1, 2].
	Threads []int `json:"threads,omitempty"`
	// Window is the measurement window in cycles (0 = harness default).
	Window uint64 `json:"window,omitempty"`

	// Kernels (kernel sweeps) names the kernel; kernel tables sweep
	// exactly one kernel (the vs-serial column is per-kernel).
	Kernels []string `json:"kernels,omitempty"`
	// Modes lists the swept execution modes; empty means every mode the
	// kernel implements.
	Modes []string `json:"modes,omitempty"`
	// Sizes lists the swept problem sizes (mm/lu require > 0; 0 keeps
	// the cg/bt instance default).
	Sizes []int `json:"sizes,omitempty"`

	// Harnesses (harness sweeps) names whole figures/tables to
	// regenerate ("fig1", "table1", …).
	Harnesses []string `json:"harnesses,omitempty"`

	// CellCost overrides the budget's per-cold-cell cycle estimate for
	// this sweep (stream cells default to their window; kernel and
	// harness cells to coarse built-in estimates).
	CellCost uint64 `json:"cellCost,omitempty"`
}

// Spec is a whole declarative study.
type Spec struct {
	// Name is the study's identity: its state directory and idempotency
	// scope. Lowercase slug.
	Name string `json:"name"`
	// Title heads the synthesized report; empty falls back to Name (or
	// the Markdown document's first heading).
	Title string `json:"title,omitempty"`
	// Description is carried into the report's metadata section.
	Description string `json:"description,omitempty"`
	// Priority and Deadline are passed to the job API when the study
	// runs against a daemon (deadline is a Go duration from admission).
	Priority int    `json:"priority,omitempty"`
	Deadline string `json:"deadline,omitempty"`
	// Budget bounds admitted cold work.
	Budget Budget `json:"budget,omitempty"`
	// Sweeps are the experiment grids, synthesized in order.
	Sweeps []Sweep `json:"sweeps"`
	// Claims adds the paper-claim verdict table (deltas vs. the
	// published numbers) to the report, evaluated over whatever the
	// study's sweeps reconstructed.
	Claims bool `json:"claims,omitempty"`
}

// Parse reads a spec from JSON or Markdown bytes: input whose first
// non-space byte is '{' is parsed as JSON; anything else is treated as
// Markdown and the first ```json fenced block is parsed instead.
// The returned spec is validated.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("spec: empty input")
	}
	var title string
	if trimmed[0] != '{' {
		var err error
		trimmed, title, err = extractFenced(trimmed)
		if err != nil {
			return nil, err
		}
	}
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after the JSON object")
	}
	if s.Title == "" {
		s.Title = title
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// extractFenced pulls the first ```json fenced block out of a Markdown
// document, plus the document's first "# " heading as a title fallback.
func extractFenced(md []byte) (block []byte, title string, err error) {
	lines := strings.Split(string(md), "\n")
	var body []string
	in := false
	for _, line := range lines {
		t := strings.TrimSpace(line)
		if !in {
			if title == "" && strings.HasPrefix(t, "# ") {
				// JSON strings are always valid UTF-8 (the decoder coerces
				// them); hold the Markdown path to the same, or the spec's
				// canonical form would not round-trip byte-stable.
				title = strings.ToValidUTF8(strings.TrimSpace(strings.TrimPrefix(t, "# ")), "�")
			}
			if t == "```json" || t == "```study" {
				in = true
			}
			continue
		}
		if t == "```" {
			return []byte(strings.Join(body, "\n")), title, nil
		}
		body = append(body, line)
	}
	if in {
		return nil, "", fmt.Errorf("spec: unterminated fenced block")
	}
	return nil, "", fmt.Errorf("spec: markdown input has no ```json fenced block")
}

// Hash is the spec's content identity: the hex sha256 of its canonical
// JSON form. Two textually different documents (Markdown vs bare JSON,
// reordered keys) that mean the same study hash the same.
func (s *Spec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// slugOK reports whether a name is safe as a directory/file component.
func slugOK(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// ILPName is the canonical short spelling compile and synth agree on.
func ILPName(ilp streams.ILP) string {
	switch ilp {
	case streams.MinILP:
		return "min"
	case streams.MedILP:
		return "med"
	}
	return "max"
}

// EffectiveTable is the sweep's table style with the kind default
// applied.
func (sw Sweep) EffectiveTable() string {
	if sw.Table != "" {
		return sw.Table
	}
	switch sw.Kind {
	case KindStream:
		return TableFig1
	case KindKernel:
		return TableKernel
	}
	return TableText
}

// Axes are a valid sweep's grid axes as typed values, with the defaults
// applied: no ILP list means all three degrees in the paper's order, no
// thread list means one and two, no partners means the subject set. An
// empty Modes means every mode the kernel implements.
type Axes struct {
	Streams  []streams.Kind
	Partners []streams.Kind
	ILP      []streams.ILP
	Threads  []int
	Modes    []kernels.Mode
	Sizes    []int
}

// Axes returns the sweep's typed axes, parsed once more from the values
// Validate has already accepted.
func (sw Sweep) Axes() Axes {
	a, _ := sw.axes()
	return a
}

// axes parses the sweep's lists, refusing a value repeated within one
// list (compared parsed, so "min" and "1" are the same degree): a
// repeated value would only duplicate table rows.
func (sw Sweep) axes() (a Axes, err error) {
	if a.Streams, err = parseList("streams", sw.Streams, streams.ParseKind); err != nil {
		return a, err
	}
	if a.Partners, err = parseList("partners", sw.Partners, streams.ParseKind); err != nil {
		return a, err
	}
	if a.ILP, err = parseList("ilp", sw.ILP, streams.ParseILP); err != nil {
		return a, err
	}
	if a.Threads, err = parseList("threads", sw.Threads, same[int]); err != nil {
		return a, err
	}
	if a.Modes, err = parseList("modes", sw.Modes, kernels.ParseMode); err != nil {
		return a, err
	}
	if a.Sizes, err = parseList("sizes", sw.Sizes, same[int]); err != nil {
		return a, err
	}
	if _, err = parseList("harnesses", sw.Harnesses, same[string]); err != nil {
		return a, err
	}
	if len(a.Partners) == 0 {
		a.Partners = a.Streams
	}
	if len(a.ILP) == 0 {
		a.ILP = streams.Levels()
	}
	if len(a.Threads) == 0 {
		a.Threads = []int{1, 2}
	}
	return a, nil
}

func same[T any](v T) (T, error) { return v, nil }

// parseList parses every value of one sweep list and refuses repeats.
func parseList[S any, T comparable](field string, in []S, parse func(S) (T, error)) ([]T, error) {
	out := make([]T, 0, len(in))
	for _, v := range in {
		t, err := parse(v)
		if err != nil {
			return nil, err
		}
		if slices.Contains(out, t) {
			return nil, fmt.Errorf("%s: %v repeats an earlier value", field, v)
		}
		out = append(out, t)
	}
	return out, nil
}

// Validate checks everything knowable without running: slugs, kind and
// table names, stream/ILP/kernel/mode spellings, values repeated within
// a list, fields the sweep's table would ignore, thread counts and the
// deadline duration. Harness names are checked against the experiments
// catalogue.
func (s *Spec) Validate() error {
	if !slugOK(s.Name) {
		return fmt.Errorf("spec: name %q must be a non-empty lowercase slug (a-z, 0-9, -, _)", s.Name)
	}
	if s.Deadline != "" {
		if _, err := time.ParseDuration(s.Deadline); err != nil {
			return fmt.Errorf("spec: deadline: %w", err)
		}
	}
	if len(s.Sweeps) == 0 {
		return fmt.Errorf("spec: at least one sweep is required")
	}
	seen := map[string]bool{}
	for i, sw := range s.Sweeps {
		if !slugOK(sw.Name) {
			return fmt.Errorf("spec: sweep %d: name %q must be a non-empty lowercase slug", i, sw.Name)
		}
		if seen[sw.Name] {
			return fmt.Errorf("spec: duplicate sweep name %q", sw.Name)
		}
		seen[sw.Name] = true
		if err := sw.validate(); err != nil {
			return fmt.Errorf("spec: sweep %q: %w", sw.Name, err)
		}
	}
	return nil
}

func (sw Sweep) validate() error {
	a, err := sw.axes()
	if err != nil {
		return err
	}
	table := sw.EffectiveTable()
	switch sw.Kind {
	case KindStream:
		if table != TableFig1 && table != TableFig2 {
			return fmt.Errorf("stream sweeps take table %q or %q, not %q", TableFig1, TableFig2, table)
		}
		if len(sw.Streams) == 0 {
			return fmt.Errorf("at least one stream is required")
		}
		if table == TableFig1 && len(sw.Partners) > 0 {
			return fmt.Errorf("partners are a fig2-table field")
		}
		if table == TableFig1 && sw.Title != "" {
			return fmt.Errorf("fig1 tables take no title (the Figure 1 heading is fixed)")
		}
		if table == TableFig2 && len(sw.Threads) > 0 {
			return fmt.Errorf("threads are a fig1-table field (fig2 cells are solos and duos)")
		}
		for _, n := range a.Threads {
			if n < 1 || n > 2 {
				return fmt.Errorf("threads must be 1 or 2 (the machine has two contexts), got %d", n)
			}
		}
	case KindKernel:
		if table != TableKernel {
			return fmt.Errorf("kernel sweeps take table %q, not %q", TableKernel, table)
		}
		if len(sw.Kernels) != 1 {
			return fmt.Errorf("kernel sweeps take exactly one kernel (the vs-serial baseline is per-kernel); split into one sweep per kernel")
		}
		k := sw.Kernels[0]
		if err := experiments.CheckKernel(k); err != nil {
			return err
		}
		if len(sw.Sizes) == 0 && (k == "mm" || k == "lu") {
			return fmt.Errorf("%s sweeps need explicit sizes > 0", k)
		}
		for _, n := range sw.Sizes {
			if n < 0 {
				return fmt.Errorf("negative size %d", n)
			}
			if n == 0 && (k == "mm" || k == "lu") {
				return fmt.Errorf("%s needs sizes > 0", k)
			}
		}
	case KindHarness:
		if table != TableText {
			return fmt.Errorf("harness sweeps take table %q, not %q", TableText, table)
		}
		if len(sw.Harnesses) == 0 {
			return fmt.Errorf("at least one harness name is required")
		}
		for _, h := range sw.Harnesses {
			if err := experiments.CheckHarness(h); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown kind %q (want stream, kernel or harness)", sw.Kind)
	}
	return nil
}
