// Package tree implements SpecInfer's token tree (paper §3, Definition 3.1):
// the structure that organizes speculated candidate token sequences. It
// provides expansion configurations, tree merge (Definition 3.2), and the
// topology-aware causal mask (Ancestry) that lets the verifier decode
// every node of the tree in one fused attention pass over a single KV
// cache shared by all branches (§4.2).
package tree

import (
	"fmt"
	"sort"
	"strings"
)

// Token is a vocabulary id.
type Token = int

// NodeID indexes a node within a Tree. The root is always node 0.
type NodeID = int

// Node is a single speculated token. Each node u represents the token
// sequence S_u obtained by concatenating the tokens on the root-to-u path
// (Definition 3.1). The root holds the last *verified* token, so its
// descendants are the speculative continuations.
type Node struct {
	Token    Token
	Parent   NodeID // -1 for the root
	Children []NodeID
	Depth    int // root has depth 0

	// Proposals records every SSM draw that proposed this node's token.
	// A node usually has one proposal, but sampled expansion and
	// merge-based construction can propose the same token several times
	// (from the same or different SSMs); keeping each draw lets MSS
	// process the exact multiset of drafts, which is what Theorem 4.2's
	// distribution-preservation argument requires.
	Proposals []Proposal
}

// Proposal is one SSM draw of a token.
type Proposal struct {
	// Prob is P(token | parent-sequence; Θ_SSM) under the proposing SSM —
	// the denominator of MSS's acceptance ratio min(1, P_LLM/P_SSM).
	Prob float32
	// SSMID identifies the proposing speculative model (meaningful for
	// merge-based construction; 0 otherwise).
	SSMID int
	// Dist is the proposing SSM's full distribution at the PARENT node
	// (P(x | S_parent; Θ_SSM)), needed by MSS's residual update
	// (Algorithm 2 line 37). It may be shared across siblings proposed by
	// the same SSM and must be treated as read-only. Nil when only greedy
	// verification will be used.
	Dist []float32
}

// SSMProb returns the probability of the node's first proposal (0 if the
// node is a root with no proposals).
func (n *Node) SSMProb() float32 {
	if len(n.Proposals) == 0 {
		return 0
	}
	return n.Proposals[0].Prob
}

// SSMID returns the proposing SSM of the node's first proposal.
func (n *Node) SSMID() int {
	if len(n.Proposals) == 0 {
		return 0
	}
	return n.Proposals[0].SSMID
}

// Tree is a token tree. Nodes are stored in the order they were added;
// node 0 is the root. Trees built by AddChild always store parents before
// children, so the storage order is a valid topological order.
type Tree struct {
	Nodes []Node
}

// New creates a token tree whose root carries the given (already verified)
// token.
func New(rootToken Token) *Tree {
	return &Tree{Nodes: []Node{{Token: rootToken, Parent: -1}}}
}

// NewSized is New with room for n nodes, root included, so a tree grown
// to at most n nodes allocates its node list once.
func NewSized(rootToken Token, n int) *Tree {
	nodes := make([]Node, 1, max(n, 1))
	nodes[0] = Node{Token: rootToken, Parent: -1}
	return &Tree{Nodes: nodes}
}

// Root returns the root node id.
func (t *Tree) Root() NodeID { return 0 }

// Len returns the number of nodes, including the root.
func (t *Tree) Len() int { return len(t.Nodes) }

// NumSpeculated returns the number of speculated (non-root) tokens.
func (t *Tree) NumSpeculated() int { return len(t.Nodes) - 1 }

// Node returns a pointer to the node with the given id.
func (t *Tree) Node(id NodeID) *Node { return &t.Nodes[id] }

// AddChild appends a node labeled tok under parent and returns its id.
// ssmProb and ssmID record the proposing SSM's probability and identity.
// Equal-token siblings are merged: proposing a token that already exists
// under parent accumulates the draw onto the existing child and returns
// its id. Token trees therefore never hold duplicate-token children —
// ChildWithToken-based descent (greedy/naive verification) would silently
// ignore the later sibling's entire subtree if they did.
func (t *Tree) AddChild(parent NodeID, tok Token, ssmProb float32, ssmID int) NodeID {
	return t.AddChildDist(parent, tok, ssmProb, ssmID, nil)
}

// AddChildDist is AddChild carrying the proposing SSM's full distribution
// at the parent (required for stochastic verification). Like AddChild it
// merges equal-token siblings, growing the existing child's proposal list.
func (t *Tree) AddChildDist(parent NodeID, tok Token, ssmProb float32, ssmID int, ssmDist []float32) NodeID {
	if existing := t.ChildWithToken(parent, tok); existing != -1 {
		n := &t.Nodes[existing]
		n.Proposals = append(n.Proposals, Proposal{Prob: ssmProb, SSMID: ssmID, Dist: ssmDist})
		return existing
	}
	id := t.addNode(parent, tok)
	t.Nodes[id].Proposals = []Proposal{{Prob: ssmProb, SSMID: ssmID, Dist: ssmDist}}
	return id
}

// addNode appends a fresh node with an empty proposal list. Internal
// helper for construction paths (Merge, PruneToBudget) that copy proposal
// multisets verbatim and must not fabricate a placeholder draw.
func (t *Tree) addNode(parent NodeID, tok Token) NodeID {
	if parent < 0 || parent >= len(t.Nodes) {
		panic(fmt.Sprintf("tree: AddChild parent %d out of range", parent))
	}
	id := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{
		Token:  tok,
		Parent: parent,
		Depth:  t.Nodes[parent].Depth + 1,
	})
	t.Nodes[parent].Children = append(t.Nodes[parent].Children, id)
	return id
}

// ChildWithToken returns the id of u's child labeled tok, or -1.
func (t *Tree) ChildWithToken(u NodeID, tok Token) NodeID {
	for _, c := range t.Nodes[u].Children {
		if t.Nodes[c].Token == tok {
			return c
		}
	}
	return -1
}

// IsLeaf reports whether node u has no children.
func (t *Tree) IsLeaf(u NodeID) bool { return len(t.Nodes[u].Children) == 0 }

// Sequence returns S_u: the tokens on the root-to-u path, root first.
func (t *Tree) Sequence(u NodeID) []Token {
	var rev []Token
	for v := u; v != -1; v = t.Nodes[v].Parent {
		rev = append(rev, t.Nodes[v].Token)
	}
	seq := make([]Token, len(rev))
	for i := range rev {
		seq[i] = rev[len(rev)-1-i]
	}
	return seq
}

// Depth returns the maximum node depth (0 for a root-only tree).
func (t *Tree) Depth() int {
	d := 0
	for i := range t.Nodes {
		if t.Nodes[i].Depth > d {
			d = t.Nodes[i].Depth
		}
	}
	return d
}

// Leaves returns the ids of all leaf nodes.
func (t *Tree) Leaves() []NodeID {
	var out []NodeID
	for i := range t.Nodes {
		if len(t.Nodes[i].Children) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// DFSOrder returns node ids in depth-first preorder starting at the root:
// every node appears after all its ancestors, and children are visited in
// insertion order, so the order is deterministic. Merge and PruneToBudget
// rebuild trees in this order.
func (t *Tree) DFSOrder() []NodeID {
	order := make([]NodeID, 0, len(t.Nodes))
	var visit func(NodeID)
	visit = func(u NodeID) {
		order = append(order, u)
		for _, c := range t.Nodes[u].Children {
			visit(c)
		}
	}
	visit(0)
	return order
}

// IsAncestorOrSelf reports whether a is on the root-to-b path (inclusive).
func (t *Tree) IsAncestorOrSelf(a, b NodeID) bool {
	for v := b; v != -1; v = t.Nodes[v].Parent {
		if v == a {
			return true
		}
	}
	return false
}

// Ancestry is the topology-aware causal mask of §4.2 (Equation 4
// generalized to trees) as one packed ancestor-or-self bitset per node,
// indexed by node id: bit j of node i's row is set iff node j lies on the
// root-to-i path. Node i's row has i/64+1 words, built by copying its
// parent's row and setting bit i, so rows are built in node-id order —
// valid because a tree stores every parent before its children — and a
// tree grown by appended nodes extends its Ancestry row by row without
// touching the existing rows. The tree-parallel forward pass lets node i
// attend node j iff Has(i, j): every node then receives exactly the
// attention its own sequence S_u would, and for a path-shaped tree the
// mask is the ordinary lower-triangular causal one.
//
// The zero value is an empty Ancestry ready for Extend.
type Ancestry struct {
	words []uint64 // row i is words[off[i] : off[i]+i/64+1]
	off   []int
}

// Extend appends rows for the nodes of t beyond those it has rows for;
// the existing rows must describe t's leading nodes. It panics if a node
// is stored before its parent.
func (a *Ancestry) Extend(t *Tree) {
	for id := len(a.off); id < t.Len(); id++ {
		off := len(a.words)
		for w := 0; w <= id/64; w++ {
			a.words = append(a.words, 0)
		}
		if id > 0 {
			p := t.Nodes[id].Parent
			if p < 0 || p >= id {
				panic(fmt.Sprintf("tree: node %d stored before its parent %d", id, p))
			}
			copy(a.words[off:], a.words[a.off[p]:a.off[p]+p/64+1])
		}
		a.words[off+id/64] |= 1 << (id % 64)
		a.off = append(a.off, off)
	}
}

// Has reports whether node j is an ancestor-or-self of node i.
func (a *Ancestry) Has(i, j NodeID) bool {
	if j > i {
		return false // ancestors precede their descendants in node-id order
	}
	return a.words[a.off[i]+j/64]>>(j%64)&1 != 0
}

// Reset drops every row, keeping the storage for reuse.
func (a *Ancestry) Reset() {
	a.words = a.words[:0]
	a.off = a.off[:0]
}

// Merge computes the tree merge of Definition 3.2: the smallest tree whose
// node-sequence set is the union of the inputs' node-sequence sets. All
// trees must share the same root token (the last verified token). Nodes
// from later trees that duplicate an existing sequence contribute their
// proposals to the existing node, so MSS still sees every SSM draw.
func Merge(trees ...*Tree) *Tree {
	if len(trees) == 0 {
		panic("tree: Merge of zero trees")
	}
	root := trees[0].Nodes[0].Token
	for _, tr := range trees[1:] {
		if tr.Nodes[0].Token != root {
			panic("tree: Merge requires identical root tokens")
		}
	}
	out := New(root)
	for _, tr := range trees {
		// Walk tr in DFS order carrying the corresponding node in out.
		corr := make([]NodeID, tr.Len())
		corr[0] = 0
		for _, u := range tr.DFSOrder() {
			if u == 0 {
				continue
			}
			n := tr.Node(u)
			parentInOut := corr[n.Parent]
			if existing := out.ChildWithToken(parentInOut, n.Token); existing != -1 {
				corr[u] = existing
				en := out.Node(existing)
				en.Proposals = append(en.Proposals, n.Proposals...)
				continue
			}
			id := out.addNode(parentInOut, n.Token)
			out.Node(id).Proposals = append([]Proposal(nil), n.Proposals...)
			corr[u] = id
		}
	}
	return out
}

// PruneToBudget returns a copy of the tree keeping at most budget
// speculated nodes, chosen greedily by descending score with the
// constraint that a node is only kept if its parent is kept (so the
// result is a valid token tree). The root is always kept and does not
// count against the budget. Used by ensemble speculation to cap merged
// trees and by adaptive policies to trim low-confidence branches.
func (t *Tree) PruneToBudget(budget int, score func(NodeID) float64) *Tree {
	type scored struct {
		id NodeID
		s  float64
	}
	order := make([]scored, 0, t.Len()-1)
	for id := 1; id < t.Len(); id++ {
		order = append(order, scored{id: id, s: score(id)})
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].s > order[b].s })

	kept := make([]bool, t.Len())
	kept[0] = true
	n := 0
	// Greedy with parent constraint: repeat passes until no addition fits
	// (a node can become eligible once its parent is kept).
	for n < budget {
		added := false
		for _, c := range order {
			if n == budget {
				break
			}
			if kept[c.id] || !kept[t.Nodes[c.id].Parent] {
				continue
			}
			kept[c.id] = true
			n++
			added = true
		}
		if !added {
			break
		}
	}

	out := New(t.Nodes[0].Token)
	corr := make([]NodeID, t.Len())
	corr[0] = 0
	for _, u := range t.DFSOrder() {
		if u == 0 || !kept[u] {
			continue
		}
		nd := t.Node(u)
		id := out.addNode(corr[nd.Parent], nd.Token)
		out.Node(id).Proposals = append([]Proposal(nil), nd.Proposals...)
		corr[u] = id
	}
	return out
}

// SequenceSet returns the set of token sequences represented by the tree's
// nodes, each rendered as a comparable string key. Used to state and test
// Definition 3.2.
func (t *Tree) SequenceSet() map[string]bool {
	set := make(map[string]bool, t.Len())
	for id := range t.Nodes {
		set[seqKey(t.Sequence(id))] = true
	}
	return set
}

func seqKey(seq []Token) string {
	var b strings.Builder
	for i, t := range seq {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	return b.String()
}

// FromSequence builds a path-shaped tree (width 1) from a root token and a
// sequence of continuation tokens with their SSM probabilities. probs may
// be nil, in which case probabilities default to 1.
func FromSequence(root Token, seq []Token, probs []float32, ssmID int) *Tree {
	t := New(root)
	parent := t.Root()
	for i, tok := range seq {
		p := float32(1)
		if probs != nil {
			p = probs[i]
		}
		parent = t.AddChild(parent, tok, p, ssmID)
	}
	return t
}

// String renders the tree as an indented outline, for debugging.
func (t *Tree) String() string {
	var b strings.Builder
	var visit func(NodeID)
	visit = func(u NodeID) {
		n := t.Nodes[u]
		fmt.Fprintf(&b, "%s[%d] tok=%d p=%.3f ssm=%d draws=%d\n",
			strings.Repeat("  ", n.Depth), u, n.Token, n.SSMProb(), n.SSMID(), len(n.Proposals))
		for _, c := range n.Children {
			visit(c)
		}
	}
	visit(0)
	return b.String()
}

// ExpansionConfig is the static expansion strategy ⟨k_1, ..., k_m⟩ of §3:
// m is the maximum number of speculative steps and k_i is the number of
// children expanded for each frontier token at step i.
type ExpansionConfig []int

// Validate returns an error message if the config is unusable, else "".
func (c ExpansionConfig) Validate() string {
	if len(c) == 0 {
		return "expansion config must have at least one step"
	}
	for i, k := range c {
		if k < 1 {
			return fmt.Sprintf("expansion config step %d has k=%d < 1", i, k)
		}
	}
	return ""
}

// MaxNodes returns the total number of speculated nodes a config can
// produce: sum over steps of the running product of widths.
func (c ExpansionConfig) MaxNodes() int {
	total, width := 0, 1
	for _, k := range c {
		width *= k
		total += width
	}
	return total
}

// NumSequences returns the number of root-to-leaf sequences, i.e. the
// product of all widths.
func (c ExpansionConfig) NumSequences() int {
	p := 1
	for _, k := range c {
		p *= k
	}
	return p
}

// PaperDefault is the expansion configuration used throughout the paper's
// evaluation (§6.1): expand 3-wide at the third step, depth 8.
func PaperDefault() ExpansionConfig { return ExpansionConfig{1, 1, 3, 1, 1, 1, 1, 1} }

// WidthConfig returns the ⟨k,1,1,1,1,1,1,1⟩ family used for the tree
// width studies (Table 2, Figures 9-10), with total depth 8. The paper's
// §6.4 text describes expanding at the third token; we expand at the
// first speculated token instead, because the first step is the only one
// every decoding iteration reaches — under per-step acceptance rates in
// Table 1's range, expanding a later step cannot produce width gains of
// the magnitude Table 2 reports. See EXPERIMENTS.md.
func WidthConfig(k int) ExpansionConfig {
	return ExpansionConfig{k, 1, 1, 1, 1, 1, 1, 1}
}

// ThirdTokenConfig is the paper's literal ⟨1,1,k,1,1,1,1,1⟩ configuration
// (expanding at the third token), kept for the ablation bench.
func ThirdTokenConfig(k int) ExpansionConfig {
	return ExpansionConfig{1, 1, k, 1, 1, 1, 1, 1}
}

// SequenceConfig returns a width-1 config of the given depth, which makes
// the speculator degenerate to sequence-based speculative inference.
func SequenceConfig(depth int) ExpansionConfig {
	c := make(ExpansionConfig, depth)
	for i := range c {
		c[i] = 1
	}
	return c
}

// Budget is the envelope of a tree grown best-first instead of by a
// static ExpansionConfig — the dynamic expansion §3 of the paper leaves
// as future work. Candidate tokens are ranked by their path probability
// under the SSM, so the tree branches where the SSM is uncertain but
// covering and runs deep where it is confident. The speculation policy
// picks one per request per iteration; a static run fixes one.
type Budget struct {
	// MaxNodes is the speculated-node budget per tree. Zero drafts
	// nothing, unless WithDefaults has filled it in.
	MaxNodes int
	// MaxDepth bounds the speculation depth (the paper uses 8).
	MaxDepth int
	// FanoutCap bounds how many children one node may receive (guards a
	// degenerate flat tree on near-uniform SSM distributions).
	FanoutCap int
	// MinPathProb drops candidates whose SSM path probability falls
	// below it; 0 disables the threshold.
	MinPathProb float64
}

// WithDefaults fills the zero fields: 10 nodes, depth 8, fanout 4.
func (b Budget) WithDefaults() Budget {
	if b.MaxNodes == 0 {
		b.MaxNodes = 10
	}
	if b.MaxDepth == 0 {
		b.MaxDepth = 8
	}
	if b.FanoutCap == 0 {
		b.FanoutCap = 4
	}
	return b
}

// Capacity is the most speculated nodes one tree grown under b can hold:
// MaxNodes, or fewer when FanoutCap and MaxDepth bound the tree below it
// (FanoutCap + FanoutCap² + … + FanoutCap^MaxDepth). b must have its
// defaults filled in.
func (b Budget) Capacity() int {
	total, width := 0, 1
	for d := 0; d < b.MaxDepth && total < b.MaxNodes; d++ {
		width *= b.FanoutCap
		total += width
	}
	return min(total, b.MaxNodes)
}
