package core

import (
	"specinfer/internal/policy"
	"specinfer/internal/speculator"
)

// decidePolicy computes this iteration's speculation decisions — on the
// scheduler goroutine, before the worker pool starts, so decisions are
// a pure function of batch order, the source's admission backlog
// (queued), observed accept lengths and (when measured) folded step
// costs, and the engine's any-Workers determinism holds. The mode is
// batch-global (its inputs — queue depth and occupancy — are shared);
// the budget is per-request (scaled by each request's accept-length
// EWMA) and lands in the request's row of rec. With measured costs the
// budget is a ceiling: the controller's chooser cuts it to the depth,
// or to zero, that commits tokens fastest (DESIGN.md §26).
func (e *Engine) decidePolicy(batch []*reqState, queued int, rec *IterationRecord, measured bool) {
	rec.PolicyMode = e.pol.ModeFor(queued, len(batch), e.cfg.MaxBatch).String()
	decide := e.pol.Decide
	if measured {
		decide = e.pol.DecideMeasured
	}
	for i, st := range batch {
		d := decide(st.req.ID, queued, len(batch), e.cfg.MaxBatch)
		st.shape = speculator.Shape{Budget: d.Budget, SSMs: d.SSMs}
		rec.Reqs[i].PolicyNodes = d.Budget.MaxNodes
		rec.Reqs[i].PolicySSMs = d.SSMs
	}
}

// PolicyStats snapshots the speculation policy controller's counters;
// ok is false when the policy engine is disabled.
func (e *Engine) PolicyStats() (policy.Stats, bool) {
	if e.pol == nil {
		return policy.Stats{}, false
	}
	return e.pol.Stats(), true
}
