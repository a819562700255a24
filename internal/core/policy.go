package core

import "specinfer/internal/policy"

// PolicyStats snapshots the speculation policy controller's counters;
// ok is false when the policy engine is disabled.
func (e *Engine) PolicyStats() (policy.Stats, bool) {
	if e.pol == nil {
		return policy.Stats{}, false
	}
	return e.pol.Stats(), true
}
