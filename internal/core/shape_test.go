package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"specinfer/internal/model"
	"specinfer/internal/ngram"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// passClock is a Config.Clock charged by a metered LLM and drafter:
// every LLM forward pass costs perPass microseconds plus perRow per row
// it forwards, every level the drafter drafts perLevel, and every clock
// reading one microsecond more. A Decode forwards one row, a DecodeTree
// its speculated nodes, and the Accept after it the bonus token. perRow
// 0 is a weight-streaming LLM, whose pass costs the same whatever its
// rows; perPass 0 one whose every row costs a decode.
type passClock struct {
	perPass, perRow, perLevel int64
	spent, reads              atomic.Int64
}

func (c *passClock) now() time.Time {
	us := c.reads.Add(1) + c.spent.Load()
	return time.Unix(0, 0).Add(time.Duration(us) * time.Microsecond)
}

func (c *passClock) pass(rows int) { c.spent.Add(c.perPass + c.perRow*int64(rows)) }

type meteredLLM struct {
	model.Model
	clock *passClock
}

func (m meteredLLM) NewSession() model.Session {
	return &meteredLLMSession{Session: m.Model.NewSession(), clock: m.clock}
}

type meteredLLMSession struct {
	model.Session
	clock *passClock
}

func (s *meteredLLMSession) Decode(tok model.Token) []float32 {
	s.clock.pass(1)
	return s.Session.Decode(tok)
}

func (s *meteredLLMSession) DecodeTree(t *tree.Tree) [][]float32 {
	s.clock.pass(t.NumSpeculated())
	return s.Session.DecodeTree(t)
}

func (s *meteredLLMSession) Accept(tokens []model.Token) []float32 {
	s.clock.pass(1)
	return s.Session.Accept(tokens)
}

// shortDrafter drafts with the LLM's own distributions for its first
// right levels and with rotated ones (every token's mass moved to the
// token before it, so the argmax is wrong) below them: its accept
// length is right whatever it drafts deeper. right < 0 drafts with the
// LLM's distributions at every level. Each level it drafts is charged
// to clock.
type shortDrafter struct {
	model.Model
	right int
	clock *passClock
}

func (m shortDrafter) NewSession() model.Session {
	return &shortSession{Session: m.Model.NewSession(), right: m.right, clock: m.clock}
}

type shortSession struct {
	model.Session
	right int
	clock *passClock
	bufs  [][]float32
}

func (s *shortSession) DecodeTree(t *tree.Tree) [][]float32 {
	s.clock.spent.Add(s.clock.perLevel)
	dists := s.Session.DecodeTree(t)
	if s.right < 0 {
		return dists
	}
	for len(s.bufs) < len(dists) {
		s.bufs = append(s.bufs, nil)
	}
	out := make([][]float32, len(dists))
	for i, d := range dists {
		out[i] = d
		if t.Node(tree.NodeID(i)).Depth < s.right {
			continue
		}
		rot := append(s.bufs[i][:0], d[1:]...)
		s.bufs[i] = append(rot, d[0])
		out[i] = s.bufs[i]
	}
	return out
}

// shapeServe serves reqs on a TreeSpec engine with the paper's tree and
// no Policy, its LLM metered by clock and its drafter right for right
// levels, serially so every step is timed alone, and returns the
// results, the final stats and the incremental decoding reference.
func shapeServe(t *testing.T, clock *passClock, right int, reqs []workload.Request) ([]Result, ServeStats, []RequestResult) {
	t.Helper()
	llm, _, _ := testModels(t, 0, 0)
	inc, _ := run(t, Config{Mode: Incremental, LLM: llm, Sample: sampling.GreedyConfig()}, reqs)
	eng := mustEngine(t, Config{
		Mode: TreeSpec, LLM: meteredLLM{Model: llm, clock: clock},
		SSMs:   []model.Model{shortDrafter{Model: llm, right: right, clock: clock}},
		Sample: sampling.GreedyConfig(), Seed: 7, MaxBatch: 4, Workers: 1,
		Clock: clock.now,
	})
	cancel, done := startServe(t, eng)
	res := serveAll(t, eng, reqs)
	st := eng.ServeStats()
	waitServeExit(t, cancel, done)
	for i := range reqs {
		if !reflect.DeepEqual(res[i].Output, inc[i].Output) {
			t.Fatalf("request %d: served output differs from incremental decoding:\n%v\n%v",
				reqs[i].ID, res[i].Output, inc[i].Output)
		}
	}
	if !st.ShapeEnabled || st.Shape.Steps == 0 {
		t.Fatalf("no shape decisions: %+v", st.Shape)
	}
	if st.Shape.TrackedRequests != 0 {
		t.Fatalf("%d requests still tracked by the shape chooser", st.Shape.TrackedRequests)
	}
	return res, st, inc
}

func shapeTrace(t *testing.T, n, maxNew int) []workload.Request {
	t.Helper()
	_, _, reqs := testModels(t, n, maxNew)
	return reqs
}

// TestServeDraftsFullTreeOnWeightStreamingLLM keeps the paper's tree
// verified live: on an LLM whose pass costs the same whatever its rows,
// with a drafter the LLM accepts at every level, the shape chooser must
// draft the full 20-node ⟨1,1,3,1,1,1,1,1⟩ tree on every step after its
// bootstrap zero step, and greedy output must equal incremental
// decoding.
func TestServeDraftsFullTreeOnWeightStreamingLLM(t *testing.T) {
	clock := &passClock{perPass: 100, perLevel: 10}
	res, st, _ := shapeServe(t, clock, -1, shapeTrace(t, 4, 48))
	full := tree.PaperDefault().MaxNodes()
	for _, r := range res {
		for i, n := range r.TreeNodesPerStep {
			// A request's first step may be the engine's bootstrap zero
			// step, which measures the zero-step cost.
			if n != full && (i > 0 || n != 0) {
				t.Fatalf("request %d step %d verified %d nodes, want the full %d-node tree: %v",
					r.ID, i, n, full, r.TreeNodesPerStep)
			}
		}
	}
	if st.Shape.ZeroSteps == 0 || st.Shape.ZeroSteps > uint64(len(res)) {
		t.Fatalf("%d zero steps, want the bootstrap's (1 to %d)", st.Shape.ZeroSteps, len(res))
	}
	if d := len(tree.PaperDefault()); st.Shape.StepsByDepth[d-1] != st.Shape.Steps-st.Shape.ZeroSteps {
		t.Fatalf("steps by depth %v, want every speculative step at depth %d", st.Shape.StepsByDepth, d)
	}
}

// TestServeShapeFollowsCostRegime serves the same drafter — right for
// three levels, wrong below — in three cost regimes, each with greedy
// output equal to incremental decoding, and drafting charged per level:
// every row costs a decode, so a tree's rows cost as much as the tokens
// they can commit, its drafting is pure loss and nearly every step is a
// zero step; a pass costs the same whatever its rows, so the full tree
// wins; and a pass costs a fixed part plus a smaller per-row part, where
// three levels, the depth the drafter is right to, commit tokens
// fastest and deeper levels only add rows and drafting.
func TestServeShapeFollowsCostRegime(t *testing.T) {
	reqs := shapeTrace(t, 4, 64)
	depth := len(tree.PaperDefault())

	t.Run("per-row", func(t *testing.T) {
		_, st, _ := shapeServe(t, &passClock{perRow: 50, perLevel: 10}, 3, reqs)
		if share := float64(st.Shape.ZeroSteps) / float64(st.Shape.Steps); share < 0.8 {
			t.Fatalf("zero-step share %.2f (%+v), want nearly every step incremental", share, st.Shape)
		}
	})
	t.Run("flat", func(t *testing.T) {
		_, st, _ := shapeServe(t, &passClock{perPass: 100, perLevel: 10}, -1, reqs)
		if got := st.Shape.StepsByDepth[depth-1]; got < (st.Shape.Steps-st.Shape.ZeroSteps)*9/10 {
			t.Fatalf("steps by depth %v, want nearly all at the full depth %d", st.Shape.StepsByDepth, depth)
		}
	})
	t.Run("interior", func(t *testing.T) {
		_, st, _ := shapeServe(t, &passClock{perPass: 100, perRow: 20, perLevel: 10}, 3, reqs)
		mode := 0
		for d, n := range st.Shape.StepsByDepth {
			if n > st.Shape.StepsByDepth[mode] {
				mode = d
			}
		}
		if mode+1 != 3 || st.Shape.StepsByDepth[mode] < st.Shape.Steps/2 {
			t.Fatalf("steps by depth %v (%d steps, %d zero), want most at depth 3",
				st.Shape.StepsByDepth, st.Shape.Steps, st.Shape.ZeroSteps)
		}
	})
}

// TestPolicyCeilingPricedAtShapeNodes: every cut of a policy ceiling is
// priced at the nodes the shape itself drafts from the pool,
// Shape.Cut(d).Nodes(pool), as a static ceiling's is. With two SSMs the
// rule's starting budget (6 nodes, depth 3, fan-out 3) cut to depth 1
// merges two 3-node trees, so it is priced at 6 nodes, not at one
// tree's 3, and no step verifies more nodes than its cut was priced at.
// The rule decides once per step, as it does under Serve.
func TestPolicyCeilingPricedAtShapeNodes(t *testing.T) {
	llm, ssm, reqs := testModels(t, 1, 48)
	mk := workload.NewMarkov(workload.DatasetByName("Alpaca"))
	ssm2 := ngram.New(ngram.Config{Name: "ssm2", Vocab: 192, Order: 2, Smoothing: 0.05})
	ssm2.TrainCorpus(mk.Corpus(tensor.NewRNG(777), 20, 256))
	clock := &passClock{perPass: 100, perLevel: 10}
	eng := mustEngine(t, Config{
		Mode: TreeSpec, LLM: meteredLLM{Model: llm, clock: clock},
		SSMs:   []model.Model{shortDrafter{Model: ssm, right: -1, clock: clock}, ssm2},
		Sample: sampling.GreedyConfig(), Policy: &policy.Config{}, Workers: 1,
	})
	st := eng.admit(reqs[0], eng.prefix)
	defer eng.release(st)
	batch := eng.prefill([]*reqState{st})
	drafted := 0
	for step := 0; !st.done; step++ {
		rec := eng.stepBatch(batch, 0, clock.now)
		if want := []int{6, 6, 6}; step == 0 && !reflect.DeepEqual(eng.nodes, want) {
			t.Fatalf("starting ceiling priced at %v nodes by depth, want %v", eng.nodes, want)
		}
		if row := rec.Reqs[0]; row.Depth > 0 {
			drafted++
			if row.TreeNodes > eng.nodes[row.Depth-1] {
				t.Fatalf("step %d: verified %d nodes at depth %d, priced at %d",
					step, row.TreeNodes, row.Depth, eng.nodes[row.Depth-1])
			}
		}
	}
	if drafted == 0 {
		t.Fatal("no step drafted a tree")
	}
}
