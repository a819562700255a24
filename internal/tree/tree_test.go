package tree

import (
	"reflect"
	"testing"
	"testing/quick"

	"specinfer/internal/tensor"
)

// buildFigure4Tree reconstructs the speculated token tree of the paper's
// Figure 4: verified token t2 at the root, with two branches
// t2->t3->t4->t5, t3->t4->t6->t7 and t3->t8->t9.
func buildFigure4Tree() *Tree {
	t := New(2)
	n3 := t.AddChild(0, 3, 1, 0)
	n4 := t.AddChild(n3, 4, 1, 0)
	t.AddChild(n4, 5, 1, 0)
	n6 := t.AddChild(n4, 6, 1, 0)
	t.AddChild(n6, 7, 1, 0)
	n8 := t.AddChild(n3, 8, 1, 0)
	t.AddChild(n8, 9, 1, 0)
	return t
}

func TestSequence(t *testing.T) {
	tr := buildFigure4Tree()
	// Find the node labeled 7 and check its root path is 2,3,4,6,7.
	for id := range tr.Nodes {
		if tr.Nodes[id].Token == 7 {
			got := tr.Sequence(id)
			want := []Token{2, 3, 4, 6, 7}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Sequence = %v, want %v", got, want)
			}
		}
	}
}

func TestDFSOrderParentsFirst(t *testing.T) {
	tr := buildFigure4Tree()
	order := tr.DFSOrder()
	if len(order) != tr.Len() {
		t.Fatalf("DFS order length %d != %d", len(order), tr.Len())
	}
	pos := map[NodeID]int{}
	for i, id := range order {
		pos[id] = i
	}
	for id, n := range tr.Nodes {
		if n.Parent != -1 && pos[n.Parent] >= pos[id] {
			t.Fatalf("parent %d after child %d in DFS order", n.Parent, id)
		}
	}
	if order[0] != tr.Root() {
		t.Fatal("DFS order must start at root")
	}
}

func TestAncestryMatchesIsAncestorOrSelf(t *testing.T) {
	tr := buildFigure4Tree()
	var anc Ancestry
	anc.Extend(tr)
	n := tr.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := anc.Has(i, j), tr.IsAncestorOrSelf(j, i); got != want {
				t.Fatalf("Has(%d,%d)=%v want %v", i, j, got, want)
			}
		}
	}
}

func TestAncestryOfPathIsCausal(t *testing.T) {
	tr := FromSequence(1, []Token{5, 6, 7, 8}, nil, 0)
	var anc Ancestry
	anc.Extend(tr)
	for i := 0; i < tr.Len(); i++ {
		for j := 0; j < tr.Len(); j++ {
			if anc.Has(i, j) != (j <= i) {
				t.Fatalf("path tree mask must be lower triangular, (%d,%d)=%v",
					i, j, anc.Has(i, j))
			}
		}
	}
}

func TestMaskFigure4Example(t *testing.T) {
	// The paper's Figure 4 highlights that t7's row attends t2,t3,t4,t6,t7
	// but NOT t5 even though t5 precedes t7 in the cache layout.
	tr := buildFigure4Tree()
	var anc Ancestry
	anc.Extend(tr)
	i7 := -1
	for id := range tr.Nodes {
		if tr.Nodes[id].Token == 7 {
			i7 = id
		}
	}
	if i7 == -1 {
		t.Fatal("token 7 not found")
	}
	attends := map[Token]bool{}
	for j := range tr.Nodes {
		if anc.Has(i7, j) {
			attends[tr.Nodes[j].Token] = true
		}
	}
	want := map[Token]bool{2: true, 3: true, 4: true, 6: true, 7: true}
	if !reflect.DeepEqual(attends, want) {
		t.Fatalf("t7 attends %v, want %v", attends, want)
	}
}

// TestAncestryExtendIncremental grows a tree well past one 64-bit word
// per row, extending the Ancestry after every append, and checks each
// step against a fresh build and a parent walk; Reset must return it to
// a reusable empty state.
func TestAncestryExtendIncremental(t *testing.T) {
	rng := tensor.NewRNG(77)
	tr := New(0)
	var grown Ancestry
	grown.Extend(tr)
	for tr.Len() < 150 {
		tr.AddChild(rng.Intn(tr.Len()), rng.Intn(1000), 1, 0)
		grown.Extend(tr)
	}
	var fresh Ancestry
	fresh.Extend(tr)
	for i := 0; i < tr.Len(); i++ {
		for j := 0; j < tr.Len(); j++ {
			want := tr.IsAncestorOrSelf(j, i)
			if grown.Has(i, j) != want || fresh.Has(i, j) != want {
				t.Fatalf("Has(%d,%d): grown %v fresh %v want %v", i, j, grown.Has(i, j), fresh.Has(i, j), want)
			}
		}
	}
	grown.Reset()
	path := FromSequence(1, []Token{2, 3}, nil, 0)
	grown.Extend(path)
	if !grown.Has(2, 1) || grown.Has(1, 2) {
		t.Fatal("Ancestry reused after Reset describes the wrong tree")
	}
}

func TestAncestryRejectsChildBeforeParent(t *testing.T) {
	tr := New(0)
	tr.AddChild(0, 1, 1, 0)
	tr.AddChild(1, 2, 1, 0)
	tr.Nodes[1].Parent = 2 // hostile in-place edit: node 1 now follows its parent
	defer func() {
		if recover() == nil {
			t.Fatal("Extend accepted a node stored before its parent")
		}
	}()
	var anc Ancestry
	anc.Extend(tr)
}

func TestMergeDefinition(t *testing.T) {
	// Merging trees must produce exactly the union of sequence sets
	// (Definition 3.2).
	a := FromSequence(1, []Token{10, 11, 12}, nil, 0)
	b := FromSequence(1, []Token{10, 11, 13}, nil, 1)
	c := FromSequence(1, []Token{20, 21}, nil, 2)
	m := Merge(a, b, c)

	union := map[string]bool{}
	for _, tr := range []*Tree{a, b, c} {
		for k := range tr.SequenceSet() {
			union[k] = true
		}
	}
	if got := m.SequenceSet(); !reflect.DeepEqual(got, union) {
		t.Fatalf("merged sequence set %v != union %v", got, union)
	}
	// Shared prefix 1->10->11 must appear exactly once.
	if m.Len() != 1+3+1+2 {
		t.Fatalf("merged tree has %d nodes, want 7 (prefix shared)", m.Len())
	}
}

func TestMergeIdempotent(t *testing.T) {
	a := buildFigure4Tree()
	m := Merge(a, a)
	if !reflect.DeepEqual(m.SequenceSet(), a.SequenceSet()) {
		t.Fatal("Merge(a,a) must equal a's sequence set")
	}
	if m.Len() != a.Len() {
		t.Fatalf("Merge(a,a) has %d nodes, want %d", m.Len(), a.Len())
	}
}

func randomTree(rng *tensor.RNG, rootTok Token, nodes int) *Tree {
	tr := New(rootTok)
	for i := 0; i < nodes; i++ {
		parent := rng.Intn(tr.Len())
		tok := Token(rng.Intn(8))
		// Skip duplicates to keep trees canonical (a parent never has two
		// children with the same token).
		if tr.ChildWithToken(parent, tok) != -1 {
			continue
		}
		tr.AddChild(parent, tok, float32(rng.Float64()), 0)
	}
	return tr
}

func TestMergeCommutativeAssociativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		a := randomTree(rng, 1, 8)
		b := randomTree(rng, 1, 8)
		c := randomTree(rng, 1, 8)
		ab := Merge(a, b).SequenceSet()
		ba := Merge(b, a).SequenceSet()
		if !reflect.DeepEqual(ab, ba) {
			return false
		}
		abc1 := Merge(Merge(a, b), c).SequenceSet()
		abc2 := Merge(a, Merge(b, c)).SequenceSet()
		return reflect.DeepEqual(abc1, abc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeUnionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		a := randomTree(rng, 3, 10)
		b := randomTree(rng, 3, 10)
		m := Merge(a, b)
		union := map[string]bool{}
		for k := range a.SequenceSet() {
			union[k] = true
		}
		for k := range b.SequenceSet() {
			union[k] = true
		}
		return reflect.DeepEqual(m.SequenceSet(), union)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMergePanicsOnRootMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge must panic for differing root tokens")
		}
	}()
	Merge(New(1), New(2))
}

func TestExpansionConfig(t *testing.T) {
	c := PaperDefault()
	if got := c.NumSequences(); got != 3 {
		t.Fatalf("paper config sequences = %d, want 3", got)
	}
	if got := c.MaxNodes(); got != 1+1+3+3+3+3+3+3 {
		t.Fatalf("paper config max nodes = %d, want 20", got)
	}
	// Figure 3's example: <2,2,1> yields 4 sequences and 2+4+4=10 nodes.
	fig3 := ExpansionConfig{2, 2, 1}
	if fig3.NumSequences() != 4 {
		t.Fatalf("<2,2,1> sequences = %d, want 4", fig3.NumSequences())
	}
	if fig3.MaxNodes() != 10 {
		t.Fatalf("<2,2,1> max nodes = %d, want 10", fig3.MaxNodes())
	}
	if msg := (ExpansionConfig{1, 0, 1}).Validate(); msg == "" {
		t.Fatal("config with k=0 must be invalid")
	}
	if msg := (ExpansionConfig{}).Validate(); msg == "" {
		t.Fatal("empty config must be invalid")
	}
	if msg := WidthConfig(5).Validate(); msg != "" {
		t.Fatalf("width config should validate, got %q", msg)
	}
	if len(SequenceConfig(8)) != 8 || SequenceConfig(8).NumSequences() != 1 {
		t.Fatal("SequenceConfig must be width-1 of requested depth")
	}
}

func TestLeavesAndDepth(t *testing.T) {
	tr := buildFigure4Tree()
	if got := tr.Depth(); got != 4 {
		t.Fatalf("Depth = %d, want 4", got)
	}
	leaves := tr.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %v, want 3 leaves", leaves)
	}
	for _, l := range leaves {
		if !tr.IsLeaf(l) {
			t.Fatalf("node %d reported as leaf but has children", l)
		}
	}
}

func TestFromSequence(t *testing.T) {
	probs := []float32{0.5, 0.25}
	tr := FromSequence(9, []Token{1, 2}, probs, 3)
	if tr.Len() != 3 || tr.Depth() != 2 {
		t.Fatalf("FromSequence shape wrong: len=%d depth=%d", tr.Len(), tr.Depth())
	}
	leaf := tr.Leaves()[0]
	if tr.Node(leaf).SSMProb() != 0.25 || tr.Node(leaf).SSMID() != 3 {
		t.Fatal("FromSequence must carry probs and ssm id")
	}
	if !reflect.DeepEqual(tr.Sequence(leaf), []Token{9, 1, 2}) {
		t.Fatalf("leaf sequence = %v", tr.Sequence(leaf))
	}
}

func TestChildWithToken(t *testing.T) {
	tr := New(0)
	tr.AddChild(0, 7, 1, 0)
	if tr.ChildWithToken(0, 7) == -1 {
		t.Fatal("existing child not found")
	}
	if tr.ChildWithToken(0, 8) != -1 {
		t.Fatal("missing child reported found")
	}
}

func TestPruneToBudgetProperties(t *testing.T) {
	f := func(seed uint64, budgetRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		tr := randomTree(rng, 1, 14)
		budget := int(budgetRaw%12) + 1
		pruned := tr.PruneToBudget(budget, func(id NodeID) float64 {
			return float64(tr.Node(id).SSMProb())
		})
		if pruned.NumSpeculated() > budget {
			return false
		}
		// Every pruned sequence must exist in the original.
		orig := tr.SequenceSet()
		for k := range pruned.SequenceSet() {
			if !orig[k] {
				return false
			}
		}
		// Structural validity: depths consistent with parents.
		for id := 1; id < pruned.Len(); id++ {
			n := pruned.Node(id)
			if n.Depth != pruned.Node(n.Parent).Depth+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPruneKeepsHighestScores(t *testing.T) {
	tr := New(0)
	a := tr.AddChild(0, 1, 0.9, 0)
	tr.AddChild(0, 2, 0.1, 0)
	tr.AddChild(a, 3, 0.8, 0)
	pruned := tr.PruneToBudget(2, func(id NodeID) float64 {
		return float64(tr.Node(id).SSMProb())
	})
	set := pruned.SequenceSet()
	if !set["0,1"] || !set["0,1,3"] {
		t.Fatalf("high-score chain must survive, got %v", set)
	}
	if set["0,2"] {
		t.Fatal("low-score node must be pruned")
	}
}

func TestPruneZeroBudgetKeepsRoot(t *testing.T) {
	tr := FromSequence(5, []Token{1, 2}, nil, 0)
	pruned := tr.PruneToBudget(0, func(NodeID) float64 { return 1 })
	if pruned.Len() != 1 || pruned.Node(0).Token != 5 {
		t.Fatal("zero budget must keep only the root")
	}
}
