package core

import (
	"specinfer/internal/model"
	"specinfer/internal/policy"
	"specinfer/internal/sampling"
	"specinfer/internal/speculator"
	"specinfer/internal/tree"
)

// policySpeculator adapts a pool of per-SSM adaptive speculators to the
// treeSpeculator lifecycle under per-iteration policy decisions: the
// engine writes the current decision before stepping (serially, on the
// scheduler goroutine), and Speculate grows one tree per selected SSM
// under the decided budget, merging ensembles per Definition 3.2. All
// SSM sessions track the committed sequence regardless of whether they
// speculated this iteration, so a later decision can re-enable any
// ensemble member without resyncing. Tokens committed by zero-budget
// steps reach them late: Defer queues them, and the next Speculate
// forwards the whole backlog in one batched Accept before drafting —
// bit-identical to committing them one at a time, at one SSM pass.
type policySpeculator struct {
	specs []*speculator.AdaptiveSpeculator
	// dec is this iteration's decision. Written by decidePolicy before
	// the worker pool starts and read by the single worker stepping
	// this request — never concurrently.
	dec policy.Decision
	// backlog holds committed tokens the SSM sessions have not seen
	// yet (touched only by the worker stepping this request).
	backlog []model.Token
}

func newPolicySpeculator(sample sampling.Config, ssms []model.Model) *policySpeculator {
	p := &policySpeculator{}
	for _, m := range ssms {
		p.specs = append(p.specs, speculator.NewAdaptive(speculator.AdaptiveConfig{}, sample, m))
	}
	return p
}

// Prefill feeds the request prompt to every SSM session.
func (p *policySpeculator) Prefill(prompt []model.Token) {
	for _, s := range p.specs {
		s.Prefill(prompt)
	}
}

// Accept commits verified tokens into every SSM session — including
// members the current decision benched, keeping the whole ensemble
// aligned with the request sequence. Speculate has already flushed the
// backlog, so the tokens extend the tree it drafted.
func (p *policySpeculator) Accept(tokens []model.Token) {
	for _, s := range p.specs {
		s.Accept(tokens)
	}
}

// Defer queues tokens a zero-budget step committed without any SSM
// forward.
func (p *policySpeculator) Defer(tokens ...model.Token) {
	p.backlog = append(p.backlog, tokens...)
}

// catchUp forwards the deferred backlog into every SSM session in one
// batched Accept.
func (p *policySpeculator) catchUp() {
	if len(p.backlog) == 0 {
		return
	}
	p.Accept(p.backlog)
	p.backlog = p.backlog[:0]
}

// Close releases every SSM session.
func (p *policySpeculator) Close() {
	for _, s := range p.specs {
		s.Close()
	}
	p.backlog = nil
}

// Speculate catches the SSM sessions up on any deferred tokens, then
// grows the decided number of SSM trees under the decided budget and
// merges them. The engine never calls it on a zero budget — that step
// decodes without a tree — but a zero budget still yields a valid bare
// root.
func (p *policySpeculator) Speculate(rootTok model.Token) *tree.Tree {
	p.catchUp()
	b := p.dec.Budget
	if b.MaxNodes <= 0 {
		return tree.New(rootTok)
	}
	cfg := speculator.AdaptiveConfig{
		MaxNodes:    b.MaxNodes,
		MaxDepth:    b.MaxDepth,
		FanoutCap:   b.FanoutCap,
		MinPathProb: b.MinPathProb,
	}
	n := p.dec.SSMs
	if n <= 0 || n > len(p.specs) {
		n = len(p.specs)
	}
	if n == 1 {
		return p.specs[0].SpeculateBudget(rootTok, cfg)
	}
	trees := make([]*tree.Tree, n)
	for i := 0; i < n; i++ {
		trees[i] = p.specs[i].SpeculateBudget(rootTok, cfg)
	}
	merged := tree.Merge(trees...)
	if merged.NumSpeculated() > b.MaxNodes {
		merged = pruneByPathProb(merged, b.MaxNodes)
	}
	return merged
}

// pruneByPathProb trims a merged ensemble tree back to the node budget,
// keeping the highest-path-probability nodes (parent-closed, so the
// result is a valid token tree).
func pruneByPathProb(tr *tree.Tree, budget int) *tree.Tree {
	path := make([]float64, tr.Len())
	path[0] = 1
	for _, id := range tr.DFSOrder() {
		if id == 0 {
			continue
		}
		n := tr.Node(id)
		path[id] = path[n.Parent] * float64(n.SSMProb())
	}
	return tr.PruneToBudget(budget, func(id tree.NodeID) float64 { return path[id] })
}

// decidePolicy computes this iteration's speculation decisions — on the
// scheduler goroutine, before the worker pool starts, so decisions are
// a pure function of batch order, observed accept lengths and (when
// measured) folded step costs, and the engine's any-Workers determinism
// holds. The mode is batch-global (its inputs — queue depth and
// occupancy — are shared); the budget is per-request (scaled by each
// request's accept-length EWMA). With measured costs the controller may
// floor a request's budget to zero.
func (e *Engine) decidePolicy(active []*reqState, rec *IterationRecord, measured bool) {
	// The admission backlog: the live serve queue, or RunOnline's
	// ready-but-unadmitted arrivals during co-simulation (one of the two
	// is always zero).
	queueLen := e.QueueLen() + e.simQueued
	rec.PolicyMode = e.pol.ModeFor(queueLen, len(active), e.cfg.MaxBatch).String()
	decide := e.pol.Decide
	if measured {
		decide = e.pol.DecideMeasured
	}
	depth := 0
	for _, st := range active {
		d := decide(st.req.ID, queueLen, len(active), e.cfg.MaxBatch)
		if ps, ok := st.spec.(*policySpeculator); ok {
			ps.dec = d
		}
		if d.Budget.MaxNodes > 0 && d.Budget.MaxDepth > depth {
			depth = d.Budget.MaxDepth
		}
		rec.PolicyNodes = append(rec.PolicyNodes, d.Budget.MaxNodes)
		rec.PolicySSMs = append(rec.PolicySSMs, d.SSMs)
	}
	// SSM levels run data parallel across the batch, so the deepest
	// decided budget bounds the speculation phase this iteration —
	// overriding the static ceiling specDepth reported.
	rec.SpecSteps = depth
}

// PolicyStats snapshots the speculation policy controller's counters;
// ok is false when the policy engine is disabled.
func (e *Engine) PolicyStats() (policy.Stats, bool) {
	if e.pol == nil {
		return policy.Stats{}, false
	}
	return e.pol.Stats(), true
}
