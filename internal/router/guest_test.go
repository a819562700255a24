package router

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specinfer/internal/core"
	"specinfer/internal/kvcache"
	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/transformer"
	"specinfer/internal/tree"
	"specinfer/internal/workload"
)

// Prompt endings the guest tests key their sessions' behaviour on. Every
// test prompt is a shared prefix plus three tokens (guestPrompt), the
// last one of these; the prefix tokens stay below all of them.
const (
	endPlain   = 181 // runs freely
	endGateA   = 182 // blocks on gate A
	endGateB   = 183 // blocks on gate B
	endPoison  = 184 // the first such prefill panics
	guestVocab = 192
)

// gate holds the sessions whose prompt ends with its token at their
// second forward pass: entered is signalled, then the pass waits for
// open to close. The request has then streamed its first step's
// tokens and holds its replica's iteration.
type gate struct {
	open, entered chan struct{}
	once          sync.Once
}

func newGate() *gate { return &gate{open: make(chan struct{}), entered: make(chan struct{}, 4)} }

// release opens the gate; idempotent.
func (g *gate) release() { g.once.Do(func() { close(g.open) }) }

// guestLLM is a paged transformer LLM whose sessions honour the test's
// gates and its one-shot poison. Its sessions keep the transformer's
// paged arena, so they share prefixes through the prefix cache.
type guestLLM struct {
	*transformer.Model
	gates  map[model.Token]*gate // read-only once the fleet runs
	poison atomic.Bool           // the next prefill of an endPoison prompt panics
}

func (m *guestLLM) NewSession() model.Session {
	return &guestSession{Session: m.Model.NewSession().(*transformer.Session), m: m}
}

type guestSession struct {
	*transformer.Session
	m     *guestLLM
	g     *gate
	calls int
}

func (s *guestSession) arm(prompt []model.Token) {
	last := prompt[len(prompt)-1]
	if last == endPoison && s.m.poison.CompareAndSwap(true, false) {
		panic("guestLLM: poisoned prefill")
	}
	s.g = s.m.gates[last]
}

func (s *guestSession) pass() {
	s.calls++
	if s.g != nil && s.calls == 2 {
		s.g.entered <- struct{}{}
		<-s.g.open
	}
}

func (s *guestSession) Prefill(p []model.Token) []float32 {
	s.arm(p)
	return s.Session.Prefill(p)
}

func (s *guestSession) PrefillShared(h *kvcache.PinnedPrefix, p []model.Token) []float32 {
	s.arm(p)
	return s.Session.PrefillShared(h, p)
}

func (s *guestSession) Decode(tok model.Token) []float32 {
	s.pass()
	return s.Session.Decode(tok)
}

func (s *guestSession) DecodeTree(t *tree.Tree) [][]float32 {
	s.pass()
	return s.Session.DecodeTree(t)
}

// guestModels builds the gated LLM and a plain SSM, both paged
// transformers.
func guestModels(gates map[model.Token]*gate) (*guestLLM, model.Model) {
	llm := &guestLLM{Model: transformer.New(transformer.Config{
		Name: "guest-llm", Vocab: guestVocab, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 21,
	}), gates: gates}
	ssm := transformer.New(transformer.Config{
		Name: "guest-ssm", Vocab: guestVocab, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 22,
	})
	return llm, ssm
}

// guestFleet builds a two-replica tree-speculating fleet with prefix
// caches. With shared set both replicas serve the same model objects;
// otherwise each builds its own, with the same weights.
func guestFleet(t *testing.T, shared bool, gates map[model.Token]*gate) (*Router, []*guestLLM) {
	t.Helper()
	llm, ssm := guestModels(gates)
	var llms []*guestLLM
	engs := make([]*core.Engine, 2)
	for i := range engs {
		if !shared && i > 0 {
			llm, ssm = guestModels(gates)
		}
		llms = append(llms, llm)
		eng, err := core.NewEngine(core.Config{
			Mode: core.TreeSpec, LLM: llm, SSMs: []model.Model{ssm},
			Shape:  speculator.Shape{Expansion: tree.WidthConfig(2)[:3]},
			Sample: sampling.GreedyConfig(), Seed: 17,
			MaxBatch: 4, PrefixCacheBytes: 64 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		engs[i] = eng
	}
	r, err := New(Config{Replicas: engs})
	if err != nil {
		t.Fatal(err)
	}
	return r, llms
}

// guestPrompt is a 73-token prompt: a 70-token prefix every test prompt
// shares (one full 64-row page and more), then mid and end.
func guestPrompt(mid, end int) []int {
	p := make([]int, 0, 73)
	for i := 0; i < 70; i++ {
		p = append(p, (i*37+11)%180)
	}
	return append(p, mid, mid+1, end)
}

// guestRun drives one fleet for the guest tests: it submits requests
// and waits on gates and results.
type guestRun struct {
	t             *testing.T
	r             *Router
	affine, other int
}

func (g *guestRun) submit(ctx context.Context, id, mid, end, maxNew int) (<-chan model.Token, <-chan core.Result) {
	g.t.Helper()
	return g.submitPrompt(ctx, id, guestPrompt(mid, end), maxNew)
}

func (g *guestRun) submitPrompt(ctx context.Context, id int, prompt []int, maxNew int) (<-chan model.Token, <-chan core.Result) {
	g.t.Helper()
	toks, res, err := g.r.Submit(ctx, workload.Request{ID: id, Prompt: prompt, MaxNewTok: maxNew})
	if err != nil {
		g.t.Fatal(err)
	}
	return toks, res
}

func (g *guestRun) result(res <-chan core.Result) core.Result {
	g.t.Helper()
	return mustFleetResult(g.t, res, 20*time.Second)
}

func (g *guestRun) entered(gt *gate) {
	g.t.Helper()
	select {
	case <-gt.entered:
	case <-time.After(20 * time.Second):
		g.t.Fatal("a gated request never reached its second pass")
	}
}

func (g *guestRun) submitted(rep int) uint64 { return g.r.Replica(rep).ServeStats().Submitted }

// startGuestRun launches the fleet, warms the affine replica's cache with one
// host request and returns the driver. Every test prompt shares one
// affinity key, so one replica is affine to them all.
func startGuestRun(t *testing.T, r *Router) (*guestRun, context.CancelFunc, chan error) {
	t.Helper()
	cancel, done := startRouter(t, r)
	affine, _ := r.ring.lookup(r.affinityKey(guestPrompt(0, endPlain)))
	g := &guestRun{t: t, r: r, affine: affine, other: 1 - affine}
	_, warm := g.submit(context.Background(), 0, 0, endPlain, 8)
	if out := g.result(warm); out.Err != nil {
		t.Fatalf("warm-up request: %v", out.Err)
	}
	if st := r.Replica(affine).PrefixCacheStats(); st.Inserts == 0 {
		t.Fatalf("the warm-up request inserted nothing: %+v", st)
	}
	return g, cancel, done
}

// busyAffine fills the affine replica with spillInFlight requests: the
// first, ending with gated, blocks on its gate (wait for it entered
// before the second); the second ends with end and queues behind it.
// It returns their results.
func (g *guestRun) busyAffine(gt *gate, gated, end int) [2]<-chan core.Result {
	g.t.Helper()
	_, a := g.submit(context.Background(), 1, 1, gated, 16)
	g.entered(gt)
	_, b := g.submit(context.Background(), 2, 2, end, 16)
	if n := g.submitted(g.affine); n != 3 {
		g.t.Fatalf("affine replica %d accepted %d requests, want the warm-up and both fillers", g.affine, n)
	}
	return [2]<-chan core.Result{a, b}
}

// TestSpilledGuestAdoptsHostPrefix: a request spilled while its affine
// replica is busy adopts its prefix from the affine replica's cache: the
// host cache counts the guest's lookups as hits, the guest replica's
// cache gains nothing, and the output equals the same request placed on
// its host. When the replicas hold distinct model objects the guest
// looks up in its own replica's cache instead. Each case ends with
// every count in flight and every pin back at 0.
func TestSpilledGuestAdoptsHostPrefix(t *testing.T) {
	for _, shared := range []bool{true, false} {
		name := map[bool]string{true: "shared-models", false: "distinct-models"}[shared]
		t.Run(name, func(t *testing.T) {
			gateA := newGate()
			r, _ := guestFleet(t, shared, map[model.Token]*gate{endGateA: gateA})
			g, cancel, done := startGuestRun(t, r)
			defer func() {
				gateA.release() // a failed check must not leave the host gated
				cancel()
				if err := <-done; err != nil {
					t.Errorf("Run returned %v", err)
				}
			}()

			fillers := g.busyAffine(gateA, endGateA, endPlain)
			hostBefore := r.Replica(g.affine).PrefixCacheStats()
			guestBefore := r.Replica(g.other).PrefixCacheStats()
			_, res := g.submit(context.Background(), 3, 3, endPlain, 16)
			if n := g.submitted(g.other); n != 1 {
				t.Fatalf("the third request was not spilled: replica %d accepted %d", g.other, n)
			}
			asGuest := g.result(res)
			if asGuest.Err != nil {
				t.Fatalf("guest: %v", asGuest.Err)
			}
			hostAfter := r.Replica(g.affine).PrefixCacheStats()
			guestAfter := r.Replica(g.other).PrefixCacheStats()

			// One lookup per session: the LLM's and the SSM's.
			if shared {
				if hostAfter.Hits != hostBefore.Hits+2 || hostAfter.TokensShared <= hostBefore.TokensShared {
					t.Fatalf("guest did not adopt from the host cache: %+v -> %+v", hostBefore, hostAfter)
				}
				if guestAfter.Hits+guestAfter.Misses != guestBefore.Hits+guestBefore.Misses {
					t.Fatalf("guest looked up in its own replica's cache: %+v -> %+v", guestBefore, guestAfter)
				}
			} else {
				if hostAfter.Hits != hostBefore.Hits || hostAfter.Misses != hostBefore.Misses {
					t.Fatalf("guest of distinct models looked up in the host cache: %+v -> %+v", hostBefore, hostAfter)
				}
				if guestAfter.Misses != guestBefore.Misses+2 {
					t.Fatalf("guest of distinct models did not look up in its own cache: %+v -> %+v", guestBefore, guestAfter)
				}
			}
			if guestAfter.Inserts != guestBefore.Inserts || guestAfter.Bytes != guestBefore.Bytes {
				t.Fatalf("guest inserted into its replica's cache: %+v -> %+v", guestBefore, guestAfter)
			}
			if hostAfter.Inserts != hostBefore.Inserts || hostAfter.Bytes != hostBefore.Bytes {
				t.Fatalf("guest inserted into the host cache: %+v -> %+v", hostBefore, hostAfter)
			}

			gateA.release()
			for i, res := range fillers {
				if out := g.result(res); out.Err != nil {
					t.Fatalf("filler %d: %v", i, out.Err)
				}
			}
			// The fleet is quiet: the same request now goes to its host.
			_, res = g.submit(context.Background(), 3, 3, endPlain, 16)
			asHost := g.result(res)
			if asHost.Err != nil || g.submitted(g.other) != 1 {
				t.Fatalf("host placement: err %v, replica %d accepted %d", asHost.Err, g.other, g.submitted(g.other))
			}
			if !reflect.DeepEqual(asGuest.Output, asHost.Output) {
				t.Fatalf("guest output %v, host output %v", asGuest.Output, asHost.Output)
			}
			if fs := r.FleetStats(); fs.Spilled != 1 || fs.Rerouted != 0 {
				t.Fatalf("spilled %d rerouted %d, want 1 and 0", fs.Spilled, fs.Rerouted)
			}
			assertSettled(t, r)
		})
	}
}

// TestGuestCancelledMidStreamReleasesHostPins: a guest holds pins in
// its host's cache while it runs; cancelled mid-stream, it releases
// them, and the fleet settles with no pin left anywhere. The guest's
// prompt extends the warm-up's, so it adopts the warm-up's tail entries
// too, which no request on the host pins.
func TestGuestCancelledMidStreamReleasesHostPins(t *testing.T) {
	gateA, gateB := newGate(), newGate()
	r, _ := guestFleet(t, true, map[model.Token]*gate{endGateA: gateA, endGateB: gateB})
	g, cancel, done := startGuestRun(t, r)
	defer func() {
		gateA.release()
		gateB.release()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Run returned %v", err)
		}
	}()

	fillers := g.busyAffine(gateA, endGateA, endPlain)
	pinnedByHosts := r.Replica(g.affine).PrefixCacheStats().Pinned
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	toks, res := g.submitPrompt(ctx, 3, append(guestPrompt(0, endPlain), 3, 4, endGateB), 64)
	g.entered(gateB)
	<-toks // mid-stream: its first step's tokens went out
	if p := r.Replica(g.affine).PrefixCacheStats().Pinned; p != pinnedByHosts+2 {
		t.Fatalf("the running guest pins %d entries of the host cache, want its LLM and SSM tails", p-pinnedByHosts)
	}
	stop()
	gateB.release()
	gateA.release()
	if out := g.result(res); !errors.Is(out.Err, context.Canceled) {
		t.Fatalf("cancelled guest: err %v, want context.Canceled", out.Err)
	}
	for i, res := range fillers {
		if out := g.result(res); out.Err != nil {
			t.Fatalf("filler %d: %v", i, out.Err)
		}
	}
	assertSettled(t, r)
}

// TestHostEjectedWhileGuestHoldsPins: the host replica panics and is
// ejected while its guest, on the other replica, still holds pins in
// the host's cache. The guest finishes with the host-placed output,
// releasing those pins; the host's own requests released theirs when
// its batch was torn down.
func TestHostEjectedWhileGuestHoldsPins(t *testing.T) {
	gateA, gateB := newGate(), newGate()
	r, llms := guestFleet(t, true, map[model.Token]*gate{endGateA: gateA, endGateB: gateB})
	g, cancel, done := startGuestRun(t, r)
	defer func() {
		gateA.release()
		gateB.release()
		cancel()
		if err := <-done; err == nil || !strings.Contains(err.Error(), "poisoned prefill") {
			t.Errorf("Run returned %v, want the host's contained panic", err)
		}
	}()

	// The host's second request panics at its prefill, once: re-routed
	// to the other replica it runs normally.
	llms[0].poison.Store(true)
	fillers := g.busyAffine(gateA, endGateA, endPoison)
	_, res := g.submit(context.Background(), 3, 3, endGateB, 16)
	g.entered(gateB)
	gateA.release() // the host steps on, admits the poisoned request and panics
	deadline := time.Now().Add(20 * time.Second)
	for r.FleetStats().Replicas[g.affine].State != "down" {
		if time.Now().After(deadline) {
			t.Fatal("the host replica was never ejected")
		}
		time.Sleep(time.Millisecond)
	}
	if p := r.Replica(g.affine).PrefixCacheStats().Pinned; p == 0 {
		t.Fatal("the guest holds no pins in the ejected host's cache")
	}
	gateB.release()

	asGuest := g.result(res)
	if asGuest.Err != nil {
		t.Fatalf("guest: %v", asGuest.Err)
	}
	// Its first tokens streamed, so the host's gated request is lost,
	// unless its pump saw the replica go down before it forwarded them
	// and re-routed it.
	if out := g.result(fillers[0]); out.Err != nil && !errors.Is(out.Err, ErrReplicaLost) {
		t.Fatalf("the host's streaming request: err %v, want ErrReplicaLost or none", out.Err)
	}
	if out := g.result(fillers[1]); out.Err != nil {
		t.Fatalf("the poisoned request was not re-routed: %v", out.Err)
	}
	assertSettled(t, r)

	// Host-placed reference: the same request on a fresh fleet.
	ref, _ := guestFleet(t, true, nil)
	stopRef, refDone := startRouter(t, ref)
	defer func() {
		stopRef()
		if err := <-refDone; err != nil {
			t.Errorf("reference Run returned %v", err)
		}
	}()
	refRun := &guestRun{t: t, r: ref}
	_, refRes := refRun.submit(context.Background(), 3, 3, endGateB, 16)
	if asHost := refRun.result(refRes); asHost.Err != nil || !reflect.DeepEqual(asGuest.Output, asHost.Output) {
		t.Fatalf("guest output %v, host output %v (err %v)", asGuest.Output, asHost.Output, asHost.Err)
	}
}
