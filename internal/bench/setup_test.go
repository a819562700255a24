package bench

import (
	"sync"
	"testing"
)

// TestModelsConcurrent hammers the pairCache from many goroutines. Under
// `go test -race` (part of the CI gate) it is the regression test that
// the pairCacheMu locking stays sound as the harness gains parallel
// drivers; it also checks a dataset's trained pair is built once and
// shared, never retrained per caller.
func TestModelsConcurrent(t *testing.T) {
	dss := Datasets()
	const goroutines = 16
	got := make([][]Pair, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(dss); i++ {
				got[g] = append(got[g], Models(dss[(g+i)%len(dss)]))
			}
		}(g)
	}
	wg.Wait()

	ref := map[string]Pair{}
	for _, d := range dss {
		ref[d.Name] = Models(d)
	}
	for g := range got {
		for _, p := range got[g] {
			want := ref[p.Dataset.Name]
			if p.LLM != want.LLM || p.SSM != want.SSM || p.Markov != want.Markov {
				t.Fatalf("goroutine %d: cache returned a distinct pair for %s", g, p.Dataset.Name)
			}
		}
	}
}

// TestTransformerPairDeterministic: the CLI substrate is cached and
// reproducible — two lookups return the same models, and traces are
// stable across calls.
func TestTransformerPairDeterministic(t *testing.T) {
	ds := Datasets()[0]
	a := TransformerPair(ds)
	b := TransformerPair(ds)
	if a.LLM != b.LLM || a.SSM != b.SSM {
		t.Fatal("TransformerPair must cache per dataset")
	}
	if a.LLM.VocabSize() != ds.Vocab {
		t.Fatalf("LLM vocab %d != dataset vocab %d", a.LLM.VocabSize(), ds.Vocab)
	}
	t1, t2 := a.Trace(3, 8), a.Trace(3, 8)
	for i := range t1 {
		if len(t1[i].Prompt) != len(t2[i].Prompt) {
			t.Fatal("traces not deterministic")
		}
		for j := range t1[i].Prompt {
			if t1[i].Prompt[j] != t2[i].Prompt[j] {
				t.Fatal("traces not deterministic")
			}
		}
	}
}
