package spec

import (
	"strings"
	"testing"

	"smtexplore/internal/streams"
)

const validJSON = `{
  "name": "fig1",
  "sweeps": [
    {"name": "fig1", "kind": "stream",
     "streams": ["fadd", "iload"], "ilp": ["min", "max"]}
  ]
}`

func TestParseJSON(t *testing.T) {
	s, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Name != "fig1" || len(s.Sweeps) != 1 {
		t.Fatalf("unexpected spec: %+v", s)
	}
	sw := s.Sweeps[0]
	if sw.EffectiveTable() != TableFig1 {
		t.Errorf("default table = %q, want fig1", sw.EffectiveTable())
	}
	if got := sw.Axes().Threads; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("default threads = %v", got)
	}
}

func TestParseMarkdown(t *testing.T) {
	md := "# The Figure 1 study\n\nProse around the block.\n\n```json\n" +
		validJSON + "\n```\n\nTrailing prose.\n"
	s, err := Parse([]byte(md))
	if err != nil {
		t.Fatalf("Parse markdown: %v", err)
	}
	if s.Title != "The Figure 1 study" {
		t.Errorf("title from heading = %q", s.Title)
	}
	// The same study means the same hash regardless of document form.
	j, err := Parse([]byte(strings.Replace(validJSON, `"name": "fig1"`,
		`"name": "fig1", "title": "The Figure 1 study"`, 1)))
	if err != nil {
		t.Fatalf("Parse json: %v", err)
	}
	if s.Hash() != j.Hash() {
		t.Errorf("markdown and JSON forms of the same study hash differently")
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            ``,
		"no fence":         "# title\n\nno json here\n",
		"unterminated":     "```json\n{\"name\":\"x\"}\n",
		"bad name":         `{"name": "Has Spaces", "sweeps": [{"name":"s","kind":"harness","harnesses":["fig1"]}]}`,
		"no sweeps":        `{"name": "x", "sweeps": []}`,
		"dup sweep":        `{"name":"x","sweeps":[{"name":"a","kind":"harness","harnesses":["fig1"]},{"name":"a","kind":"harness","harnesses":["fig1"]}]}`,
		"bad kind":         `{"name":"x","sweeps":[{"name":"a","kind":"quantum"}]}`,
		"bad stream":       `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["warp"]}]}`,
		"bad ilp":          `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd"],"ilp":["ultra"]}]}`,
		"bad threads":      `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd"],"threads":[3]}]}`,
		"fig1 partners":    `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd"],"partners":["fmul"]}]}`,
		"fig1 title":       `{"name":"x","sweeps":[{"name":"a","kind":"stream","title":"T","streams":["fadd"]}]}`,
		"fig2 threads":     `{"name":"x","sweeps":[{"name":"a","kind":"stream","table":"fig2","streams":["fadd"],"threads":[1]}]}`,
		"repeat stream":    `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd","fadd"]}]}`,
		"repeat partner":   `{"name":"x","sweeps":[{"name":"a","kind":"stream","table":"fig2","streams":["fadd"],"partners":["iadd","iadd"]}]}`,
		"repeat ilp":       `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd"],"ilp":["min","1"]}]}`,
		"repeat threads":   `{"name":"x","sweeps":[{"name":"a","kind":"stream","streams":["fadd"],"threads":[2,2]}]}`,
		"repeat size":      `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["mm"],"sizes":[32,32]}]}`,
		"repeat mode":      `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["cg"],"modes":["serial","serial"]}]}`,
		"repeat harness":   `{"name":"x","sweeps":[{"name":"a","kind":"harness","harnesses":["fig1","fig1"]}]}`,
		"two kernels":      `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["mm","lu"],"sizes":[32]}]}`,
		"mm no sizes":      `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["mm"]}]}`,
		"unknown harness":  `{"name":"x","sweeps":[{"name":"a","kind":"harness","harnesses":["nope"]}]}`,
		"unknown kernel":   `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["fft"],"sizes":[32]}]}`,
		"bad mode":         `{"name":"x","sweeps":[{"name":"a","kind":"kernel","kernels":["cg"],"modes":["warp-speed"]}]}`,
		"bad deadline":     `{"name":"x","deadline":"soon","sweeps":[{"name":"a","kind":"harness","harnesses":["fig1"]}]}`,
		"unknown field":    `{"name":"x","cycles":5,"sweeps":[{"name":"a","kind":"harness","harnesses":["fig1"]}]}`,
		"trailing garbage": validJSON + `{"again": true}`,
	}
	for label, in := range cases {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: Parse accepted %q", label, in)
		}
	}
}

func TestILPRoundTrip(t *testing.T) {
	for _, name := range []string{"min", "med", "max", "1", "3", "6", "minILP", ""} {
		ilp, err := streams.ParseILP(name)
		if err != nil {
			t.Fatalf("ParseILP(%q): %v", name, err)
		}
		back, err := streams.ParseILP(ILPName(ilp))
		if err != nil || back != ilp {
			t.Errorf("ILPName(%v)=%q does not round-trip (%v, %v)", ilp, ILPName(ilp), back, err)
		}
	}
}

func TestHashStable(t *testing.T) {
	a, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse([]byte(validJSON))
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Errorf("hash is not deterministic")
	}
	b.Budget.Cycles = 1
	if a.Hash() == b.Hash() {
		t.Errorf("hash ignores the budget")
	}
}
