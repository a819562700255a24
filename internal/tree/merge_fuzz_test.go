package tree

import (
	"reflect"
	"testing"
)

// mergeCase is a fuzz input decoded into the trees a merge-based
// speculator hands to Merge and then to PruneToBudget.
type mergeCase struct {
	trees  []*Tree
	budget int
	scores []byte // node id i of the merged tree scores scores[i%len]
}

// decodeMergeCase reads a prune budget, then 1-3 trees over root token
// 0 of up to 39 nodes each; every node is a (parent, token) byte pair.
// Tokens come from a six-token vocabulary, so the trees share sequences
// and a tree draws the same child more than once. The remaining bytes
// are the prune scores.
func decodeMergeCase(data []byte) mergeCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	c := mergeCase{budget: int(next() % 48)}
	for i, n := 0, 1+int(next()%3); i < n; i++ {
		tr := New(0)
		for j, nodes := 0, int(next()%40); j < nodes; j++ {
			parent := int(next()) % tr.Len()
			b := next()
			tr.AddChildDist(parent, Token(b%6), float32(b)/255, i, nil)
		}
		c.trees = append(c.trees, tr)
	}
	c.scores = data
	return c
}

// draws counts the proposals on a tree's speculated nodes.
func draws(tr *Tree) int {
	n := 0
	for id := 1; id < tr.Len(); id++ {
		n += len(tr.Node(id).Proposals)
	}
	return n
}

// dfsKeys lists the sequence keys of a tree's nodes in DFS order.
func dfsKeys(tr *Tree) []string {
	var keys []string
	for _, id := range tr.DFSOrder() {
		keys = append(keys, seqKey(tr.Sequence(id)))
	}
	return keys
}

// checkAncestry requires Ancestry, built in two Extend calls, to agree
// with IsAncestorOrSelf on every node pair.
func checkAncestry(t *testing.T, ctx string, tr *Tree) {
	t.Helper()
	var a Ancestry
	a.Extend(&Tree{Nodes: tr.Nodes[:(tr.Len()+1)/2]})
	a.Extend(tr)
	for i := range tr.Nodes {
		for j := range tr.Nodes {
			if a.Has(i, j) != tr.IsAncestorOrSelf(j, i) {
				t.Fatalf("%s: Ancestry.Has(%d, %d) = %v, IsAncestorOrSelf says %v:\n%s",
					ctx, i, j, a.Has(i, j), !a.Has(i, j), tr)
			}
		}
	}
}

// FuzzTreeMergePrune checks Merge (Definition 3.2) and PruneToBudget on
// decoded trees: the merge is the union of the inputs' sequence sets
// with no duplicate-token siblings and every draw kept; the prune keeps
// min(budget, nodes) nodes, parent-closed, a subset of the merged
// sequences in their DFS order, each with its proposals; and the
// Ancestry mask of both trees agrees with IsAncestorOrSelf. Plain go
// test runs the seeds below and the committed corpus in
// testdata/fuzz/FuzzTreeMergePrune.
func FuzzTreeMergePrune(f *testing.F) {
	f.Add([]byte{5, 0, 6, 0, 1, 1, 2, 0, 3, 2, 4, 3, 5})                    // one tree: merge is a copy
	f.Add([]byte{3, 1, 4, 0, 1, 1, 2, 0, 7, 1, 8, 3, 0, 1, 1, 2, 0, 13})    // two overlapping trees
	f.Add([]byte{47, 2, 3, 0, 6, 0, 6, 0, 12, 2, 0, 6, 0, 5, 1, 1, 0, 2})   // three trees, repeated draws
	f.Add([]byte{0, 2, 2, 0, 1, 1, 1, 2, 0, 1, 1, 1})                       // budget 0: the root alone
	f.Add([]byte{9, 1, 39, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1}) // a deep chain
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeMergeCase(data)
		merged := Merge(c.trees...)

		union := map[string]bool{}
		in := 0
		for _, tr := range c.trees {
			for k := range tr.SequenceSet() {
				union[k] = true
			}
			in += draws(tr)
		}
		if got := merged.SequenceSet(); !reflect.DeepEqual(got, union) {
			t.Fatalf("merged sequences %v, union of the inputs %v", got, union)
		}
		if got := draws(merged); got != in {
			t.Fatalf("merged tree holds %d draws, inputs %d", got, in)
		}
		for id := range merged.Nodes {
			seen := map[Token]bool{}
			for _, ch := range merged.Node(id).Children {
				tok := merged.Node(ch).Token
				if seen[tok] {
					t.Fatalf("node %d has two children labelled %d:\n%s", id, tok, merged)
				}
				seen[tok] = true
			}
		}
		checkAncestry(t, "merged", merged)

		score := func(id NodeID) float64 {
			if len(c.scores) == 0 {
				return 0
			}
			return float64(c.scores[id%len(c.scores)])
		}
		pruned := merged.PruneToBudget(c.budget, score)
		if want := min(c.budget, merged.NumSpeculated()); pruned.NumSpeculated() != want {
			t.Fatalf("pruned to %d nodes, want %d (budget %d of %d)",
				pruned.NumSpeculated(), want, c.budget, merged.NumSpeculated())
		}
		kept := pruned.SequenceSet()
		byKey := map[string]NodeID{}
		for id := range merged.Nodes {
			byKey[seqKey(merged.Sequence(id))] = id
		}
		for id := 1; id < pruned.Len(); id++ {
			seq := pruned.Sequence(id)
			src, ok := byKey[seqKey(seq)]
			if !ok {
				t.Fatalf("pruned sequence %v is not in the merged tree", seq)
			}
			if !kept[seqKey(seq[:len(seq)-1])] {
				t.Fatalf("pruned sequence %v kept without its parent", seq)
			}
			if !reflect.DeepEqual(pruned.Node(id).Proposals, merged.Node(src).Proposals) {
				t.Fatalf("pruned sequence %v changed its proposals", seq)
			}
		}
		var order []string
		for _, k := range dfsKeys(merged) {
			if kept[k] {
				order = append(order, k)
			}
		}
		if got := dfsKeys(pruned); !reflect.DeepEqual(got, order) {
			t.Fatalf("pruned DFS order %v, merged order restricted to kept nodes %v", got, order)
		}
		checkAncestry(t, "pruned", pruned)
	})
}
