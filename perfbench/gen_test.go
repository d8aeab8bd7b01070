package main

import (
	"reflect"
	"testing"
)

// inputs draws a prefix of every generated input stream for one seed.
func inputs(t *testing.T, seed int64) map[string]any {
	t.Helper()
	sg := newStreamGen(seed)
	var cells []streamCell
	for i := 0; i < 3*streamRoundLen(); i++ {
		cells = append(cells, sg.next())
	}
	kg := newKernelGen(seed)
	var ks []kernelCell
	for i := 0; i < 3*len(kernelGroups); i++ {
		k, err := kg.next()
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	pool := warmPool(seed)
	jg, err := newJobGen(seed, pool)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []job
	for i := 0; i < 200; i++ {
		jobs = append(jobs, jg.next())
	}
	return map[string]any{"streams": cells, "kernels": ks, "pool": pool, "jobs": jobs}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 7)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: seed 7 generated different inputs on two draws", name)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := inputs(t, 7), inputs(t, 8)
	for name := range a {
		if reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

// The generated inputs keep the properties the workloads promise: cold
// jobs never repeat a cache key, the warm pool holds distinct cells, and
// the mix is mostly warm.
func TestJobInputsProperties(t *testing.T) {
	pool := warmPool(3)
	seen := map[string]bool{}
	for _, c := range pool {
		if seen[c.label()] {
			t.Fatalf("warm pool repeats %s", c.label())
		}
		seen[c.label()] = true
	}
	jg, err := newJobGen(3, pool)
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{}
	warm := 0
	for i := 0; i < 700; i++ {
		j := jg.next()
		if j.Warm {
			warm++
			if len(j.Labels) != warmJobCells || len(j.Specs) != warmJobCells {
				t.Fatalf("warm job of %d cells, want %d", len(j.Labels), warmJobCells)
			}
			for _, l := range j.Labels {
				if !seen[l] {
					t.Fatalf("warm cell %s is not in the pool", l)
				}
			}
			continue
		}
		if len(j.Labels) != 1 || cold[j.Labels[0]] || seen[j.Labels[0]] {
			t.Fatalf("cold job %v repeats a cell or is not a single cell", j.Labels)
		}
		cold[j.Labels[0]] = true
	}
	if warm != 600 {
		t.Fatalf("%d of 700 jobs warm, want 600 (one in %d cold)", warm, coldEvery)
	}
}
