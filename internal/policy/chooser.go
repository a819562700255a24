package policy

import (
	"math"
	"sync"
)

// Constants of the shape chooser. Like the floor's, they are not
// configuration: they only set how fast the estimates forget and what a
// depth never yet reached is assumed to accept.
const (
	// survivalAlpha is the EWMA decay of a request's per-depth survival
	// estimates (the rule's Alpha default: a request's own evidence
	// takes over within a few steps).
	survivalAlpha = 0.3
	// priorSurvival is the conditional survival assumed at a depth no
	// verification has reached yet: optimistic, so a depth is tried
	// (and measured) before it is ruled out. The cost fit's anchor is
	// optimistic about shallow cuts the same way; without this, the
	// first estimates cut a tree that is accepted whole.
	priorSurvival = 1.0
	// anchorWeight is the weight, in step samples, of the zero-budget
	// step in the speculative cost fit: an incremental step is the
	// shape of no nodes and no levels.
	anchorWeight = 1
)

// Chooser prices step shapes from measured costs (DESIGN.md §26). For
// each request step it takes a ceiling shape, cut to each depth
// d = 1…D, and grants the d — or zero, an incremental step — that is
// expected to commit the most tokens per second of measured step time:
//
//	argmax over d of (1 + ŝ_1 + … + ŝ_d) ÷ ĉ(n_d, d),  against 1 ÷ c₀
//
// where ŝ_j estimates P(accept length ≥ j), n_d is the number of
// speculated nodes the ceiling cut to d levels verifies, ĉ is the
// speculative step-cost fit a + b·n + g·d and c₀ the zero-step cost.
// Survival is learned per request, seeded per depth from an
// engine-wide estimate, as a product of conditional survivals: each
// verification that drafted depth ≥ j and accepted at least j−1 tokens
// says whether the accept length reached j. A step that drafted fewer
// than j levels says nothing about depth j (it is censored there), so
// it is left out of that depth's estimate instead of counted as a
// rejection, which would shrink the estimate of every depth the chooser
// stops drafting and lock it into shallow trees.
//
// Exploration is the floor's (§19.3): a bootstrap zero step measures c₀
// and a bootstrap ceiling step the speculative cost; while the chosen
// shape is below the ceiling, the ceiling is probed after backoff such
// steps (1, doubling on a lost probe up to maxProbeBackoff, back to 1
// on a won one), so every depth keeps getting survival samples; and
// while the estimates speculate, one step in maxProbeBackoff+1 is a
// zero step that keeps c₀ fresh.
//
// A Chooser is safe for concurrent use; the engine calls Choose and the
// Observe methods serially from its scheduler goroutine, so decisions
// are a pure function of the estimates folded before the iteration.
type Chooser struct {
	mu   sync.Mutex
	reqs map[int]*shapeTrack // guarded by mu — per-request history
	// pool[j-1] is the engine-wide conditional survival at depth j,
	// P(accept ≥ j | accept ≥ j−1), that seeds each request's.
	pool     []mean  // guarded by mu
	zeroCost mean    // guarded by mu — EWMA of zero-step seconds
	cost     costFit // guarded by mu — speculative step seconds
	// zeroRun counts decisions below the ceiling since the last probe
	// and backoff is how many the engine takes before the next probe;
	// specRun counts speculative decisions since the last zero step.
	// All engine-wide, like the floor's (§19.3).
	zeroRun int // guarded by mu
	backoff int // guarded by mu
	specRun int // guarded by mu
	// steps, zero, probes and byDepth count decisions: all of them, the
	// zero ones, the ceiling probes, and those granting each depth.
	steps   uint64   // guarded by mu
	zero    uint64   // guarded by mu
	probes  uint64   // guarded by mu
	byDepth []uint64 // guarded by mu
}

// shapeTrack is one request's shape history.
type shapeTrack struct {
	// surv[j-1] is the request's conditional survival at depth j,
	// seeded from the pool the first time depth j is priced.
	surv []float64
	// depth is the depth its last decision granted (0: a zero step).
	depth int
	// probed marks that the last decision was a ceiling probe, to be
	// judged at the next decision by its own outcome: accepted tokens
	// in cost seconds.
	probed   bool
	accepted int
	cost     float64
}

// ChooserStats snapshots a Chooser.
type ChooserStats struct {
	// Steps counts decisions, ZeroSteps those granting an incremental
	// step, and Probes the ceiling probes among the rest.
	// StepsByDepth[d-1] counts those granting depth d.
	Steps, ZeroSteps, Probes uint64
	StepsByDepth             []uint64
	// ZeroCost is the zero-step cost estimate c₀ and Cost the
	// speculative step-cost fit, in seconds; both zero until measured.
	ZeroCost float64
	Cost     CostModel
	// TrackedRequests is the number of requests with live history.
	TrackedRequests int
}

// CostModel is the fitted speculative step cost: Intercept + PerNode·n
// + PerLevel·d seconds for a step verifying n speculated nodes drafted
// over d levels.
type CostModel struct {
	Intercept, PerNode, PerLevel float64
}

// At predicts the seconds of a step verifying nodes drafted over levels.
func (m CostModel) At(nodes, levels int) float64 {
	return m.Intercept + m.PerNode*float64(nodes) + m.PerLevel*float64(levels)
}

// NewChooser returns a chooser with no measurements.
func NewChooser() *Chooser {
	return &Chooser{reqs: make(map[int]*shapeTrack), backoff: 1}
}

// Choose returns how many levels the request's next step drafts: 0 for
// an incremental step, else d in 1…len(nodes), where nodes[d-1] is the
// number of speculated nodes the ceiling shape cut to d levels
// verifies. It is a pure function of the chooser's state and its
// arguments.
func (c *Chooser) Choose(reqID int, nodes []int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.reqs[reqID]
	if t == nil {
		t = &shapeTrack{}
		c.reqs[reqID] = t
	}
	d := c.chooseLocked(t, nodes)
	t.depth = d
	c.steps++
	if d == 0 {
		c.zero++
	} else {
		for len(c.byDepth) < d {
			c.byDepth = append(c.byDepth, 0)
		}
		c.byDepth[d-1]++
	}
	return d
}

//lint:holds c.mu
func (c *Chooser) chooseLocked(t *shapeTrack, nodes []int) int {
	ceil := len(nodes)
	c0, ok := c.zeroCost.value()
	switch {
	case !ok || ceil == 0:
		return 0 // bootstrap: measure the zero step first
	case c.cost.w == 0:
		return ceil // bootstrap: then the ceiling
	}
	model := c.cost.model(c0)
	best, bestRate := 0, 1/c0
	below := bestRate // the best rate short of the ceiling
	tokens, surv := 1.0, 1.0
	for d := 1; d <= ceil; d++ {
		surv *= c.survivalLocked(t, d)
		tokens += surv
		if r := tokens / math.Max(model.At(nodes[d-1], d), 1e-12); r > bestRate {
			best, bestRate = d, r
		}
		if d < ceil {
			below = bestRate
		}
	}
	if t.probed {
		t.probed = false
		if float64(1+t.accepted)/t.cost > below {
			c.backoff = 1
		} else if c.backoff < maxProbeBackoff {
			c.backoff *= 2
		}
	}
	if best > 0 {
		if c.specRun >= maxProbeBackoff {
			c.specRun = 0
			return 0
		}
		c.specRun++
	}
	if best < ceil {
		if c.zeroRun >= c.backoff {
			c.zeroRun = 0
			t.probed = true
			c.probes++
			return ceil
		}
		c.zeroRun++
	}
	return best
}

// survivalLocked is the request's conditional survival at depth j,
// seeding it (and every shallower unseeded depth) from the pool.
//
//lint:holds c.mu
func (c *Chooser) survivalLocked(t *shapeTrack, j int) float64 {
	for len(t.surv) < j {
		s := priorSurvival
		if k := len(t.surv); k < len(c.pool) {
			if v, ok := c.pool[k].value(); ok {
				s = v
			}
		}
		t.surv = append(t.surv, s)
	}
	return t.surv[j-1]
}

// ObserveAccept folds the accept length of the request's last step into
// its survival estimates and the pool's. Only depths the step drafted
// and reached are evidence: depth j is at risk when the step drafted
// j levels or more and accepted at least j−1 tokens. Negative accept
// lengths (a failed verification) and requests whose last step drafted
// nothing are ignored.
func (c *Chooser) ObserveAccept(reqID, accepted int) {
	if accepted < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.reqs[reqID]
	if t == nil || t.depth == 0 {
		return
	}
	t.accepted = accepted
	for j := 1; j <= t.depth && j <= accepted+1; j++ {
		hit := 0.0
		if accepted >= j {
			hit = 1
		}
		c.survivalLocked(t, j)
		t.surv[j-1] += survivalAlpha * (hit - t.surv[j-1])
		for len(c.pool) < j {
			c.pool = append(c.pool, mean{})
		}
		c.pool[j-1].add(hit, poolAlpha)
	}
}

// ObserveCost folds the measured seconds of the request's last step
// into the cost estimates: the zero-step cost when it drafted nothing,
// else the fit, at nodes verified speculated nodes over the levels it
// drafted. Every sample is capped at outlierCap times its current
// prediction. Non-positive times are ignored.
func (c *Chooser) ObserveCost(reqID, nodes int, seconds float64) {
	if seconds <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.reqs[reqID]
	if t == nil {
		return
	}
	t.cost = seconds
	c0, ok := c.zeroCost.value()
	if t.depth == 0 {
		if ok {
			seconds = math.Min(seconds, outlierCap*c0)
		}
		c.zeroCost.add(seconds, zeroCostAlpha)
		return
	}
	if ok && c.cost.w > 0 {
		seconds = math.Min(seconds, outlierCap*c.cost.model(c0).At(nodes, t.depth))
	}
	c.cost.add(float64(nodes), float64(t.depth), seconds)
}

// Retire drops a request's history.
func (c *Chooser) Retire(reqID int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.reqs, reqID)
}

// Stats snapshots the chooser.
func (c *Chooser) Stats() ChooserStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ChooserStats{
		Steps: c.steps, ZeroSteps: c.zero, Probes: c.probes,
		StepsByDepth:    append([]uint64(nil), c.byDepth...),
		TrackedRequests: len(c.reqs),
	}
	if c0, ok := c.zeroCost.value(); ok {
		st.ZeroCost = c0
		if c.cost.w > 0 {
			st.Cost = c.cost.model(c0)
		}
	}
	return st
}

// SumChooserStats rolls several choosers' stats up into one, as for the
// replicas of a fleet: counts sum (steps by depth too), and the cost
// estimates are means weighted by each chooser's steps.
func SumChooserStats(sts ...ChooserStats) ChooserStats {
	var sum ChooserStats
	for _, st := range sts {
		sum.Steps += st.Steps
		sum.ZeroSteps += st.ZeroSteps
		sum.Probes += st.Probes
		sum.TrackedRequests += st.TrackedRequests
		for d, n := range st.StepsByDepth {
			if d == len(sum.StepsByDepth) {
				sum.StepsByDepth = append(sum.StepsByDepth, 0)
			}
			sum.StepsByDepth[d] += n
		}
		w := float64(st.Steps)
		sum.ZeroCost += w * st.ZeroCost
		sum.Cost.Intercept += w * st.Cost.Intercept
		sum.Cost.PerNode += w * st.Cost.PerNode
		sum.Cost.PerLevel += w * st.Cost.PerLevel
	}
	if n := float64(sum.Steps); n > 0 {
		sum.ZeroCost /= n
		sum.Cost.Intercept /= n
		sum.Cost.PerNode /= n
		sum.Cost.PerLevel /= n
	}
	return sum
}

// costFit is an exponentially decayed (specCostDecay per sample) least
// squares fit of speculative step cost c = a + b·n + g·d over nodes
// verified n and levels drafted d, constrained to a, b, g >= 0, with the
// zero-step cost c₀ as one more sample at n = d = 0 (weight
// anchorWeight). The anchor is what gives a fit of steps all taken at
// one shape a slope: it reads an untried shallower cut as the chord
// between c₀ and the measured shape, which is optimistic by a tree
// pass's fixed cost, so the chooser tries the cut, and the first
// measurement corrects it.
type costFit struct {
	w  float64       // decayed sample weight
	xx [3][3]float64 // Σ w·x·xᵀ, x = (1, n, d)
	xc [3]float64    // Σ w·x·c
	cc float64       // Σ w·c²

	// fitted caches the coefficients for anchor c₀ fitC0; dirty marks
	// a sample since.
	fitted CostModel
	fitC0  float64
	dirty  bool
}

func (f *costFit) add(n, d, c float64) {
	x := [3]float64{1, n, d}
	f.w = specCostDecay*f.w + 1
	for i := range x {
		for j := range x {
			f.xx[i][j] = specCostDecay*f.xx[i][j] + x[i]*x[j]
		}
		f.xc[i] = specCostDecay*f.xc[i] + x[i]*c
	}
	f.cc = specCostDecay*f.cc + c*c
	f.dirty = true
}

// fitSubsets lists the coefficient sets the constrained fit tries, in
// order of preference on equal residuals: the intercept alone first (a
// fit with no spread predicts the mean cost), then with one slope, then
// both, then without an intercept.
var fitSubsets = [][]int{{0}, {0, 1}, {0, 2}, {0, 1, 2}, {1}, {2}, {1, 2}}

// model returns the non-negative least-squares coefficients with the
// anchor at c₀: the unconstrained solution on each subset of
// coefficients (the others held at 0), the feasible one with the least
// weighted squared residual.
func (f *costFit) model(c0 float64) CostModel {
	//lint:ignore floateq the cache is keyed by the exact anchor value it was fitted with
	if !f.dirty && f.fitC0 == c0 {
		return f.fitted
	}
	xx, xc, cc := f.xx, f.xc, f.cc
	xx[0][0] += anchorWeight
	xc[0] += anchorWeight * c0
	cc += anchorWeight * c0 * c0
	var best [3]float64
	bestSSE := math.Inf(1)
	for _, set := range fitSubsets {
		theta, ok := solveSubset(xx, xc, set)
		if !ok {
			continue
		}
		// Weighted squared residual: Σw·c² − 2θ·Σw·x·c + θᵀ(Σw·x·xᵀ)θ.
		sse := cc
		for i := range theta {
			sse -= 2 * theta[i] * xc[i]
			for j := range theta {
				sse += theta[i] * xx[i][j] * theta[j]
			}
		}
		if sse < bestSSE-1e-12*cc {
			best, bestSSE = theta, sse
		}
	}
	f.fitted = CostModel{Intercept: best[0], PerNode: best[1], PerLevel: best[2]}
	f.fitC0, f.dirty = c0, false
	return f.fitted
}

// solveSubset solves the normal equations restricted to the
// coefficients in set by Gaussian elimination. ok is false when the
// restricted system is singular (no spread along a regressor) or a
// coefficient comes out negative.
func solveSubset(xx [3][3]float64, xc [3]float64, set []int) (theta [3]float64, ok bool) {
	k := len(set)
	var a [3][4]float64
	for r, i := range set {
		for c, j := range set {
			a[r][c] = xx[i][j]
		}
		a[r][k] = xc[i]
	}
	for p := 0; p < k; p++ {
		piv := p
		for r := p + 1; r < k; r++ {
			if math.Abs(a[r][p]) > math.Abs(a[piv][p]) {
				piv = r
			}
		}
		a[p], a[piv] = a[piv], a[p]
		if math.Abs(a[p][p]) <= 1e-9*xx[set[p]][set[p]] {
			return theta, false
		}
		for r := 0; r < k; r++ {
			if r == p {
				continue
			}
			m := a[r][p] / a[p][p]
			for c := p; c <= k; c++ {
				a[r][c] -= m * a[p][c]
			}
		}
	}
	for r, i := range set {
		v := a[r][k] / a[r][r]
		if v < 0 {
			return theta, false
		}
		theta[i] = v
	}
	return theta, true
}
