package policy

import (
	"math"
	"testing"
)

// observeAt records one verification of request id that drafted depth
// levels and accepted accepted tokens, as if the chooser had granted
// that depth.
func observeAt(c *Chooser, id, depth, accepted int) {
	c.mu.Lock()
	t := c.reqs[id]
	if t == nil {
		t = &shapeTrack{}
		c.reqs[id] = t
	}
	t.depth = depth
	c.mu.Unlock()
	c.ObserveAccept(id, accepted)
}

// poolSurvival reads the engine-wide conditional survival at each depth.
func poolSurvival(c *Chooser) []float64 {
	var out []float64
	for _, m := range c.pool {
		v, _ := m.value()
		out = append(out, v)
	}
	return out
}

// TestSurvivalIgnoresCensoredDepths: a step that drafted fewer levels
// than depth j says nothing about depth j. Interleaving many shallow
// steps that were accepted whole with the same deep steps must leave
// every deeper estimate, engine-wide and per request, exactly as the
// deep steps alone set it; counting the shallow steps as rejections
// there would pull each deeper estimate toward 0.
func TestSurvivalIgnoresCensoredDepths(t *testing.T) {
	deep := []int{0, 1, 2, 4, 3, 1, 4, 2} // accept lengths of depth-4 steps
	alone, mixed := NewChooser(), NewChooser()
	for round := 0; round < 30; round++ {
		for _, a := range deep {
			observeAt(alone, 1, 4, a)
			observeAt(mixed, 1, 4, a)
			observeAt(mixed, 1, 1, 1) // censored at depth 1
		}
	}
	pa, pm := poolSurvival(alone), poolSurvival(mixed)
	if len(pa) != 4 || len(pm) != 4 {
		t.Fatalf("pooled depths %d and %d, want 4", len(pa), len(pm))
	}
	for j := 1; j < 4; j++ { // depths 2..4
		//lint:ignore floateq the censored steps must not touch these estimates at all
		if pa[j] != pm[j] {
			t.Fatalf("depth %d: pooled survival %v with censored steps, %v without", j+1, pm[j], pa[j])
		}
		//lint:ignore floateq as above, per request
		if sa, sm := alone.reqs[1].surv[j], mixed.reqs[1].surv[j]; sa != sm {
			t.Fatalf("depth %d: request survival %v with censored steps, %v without", j+1, sm, sa)
		}
	}
	if pm[0] <= pa[0] {
		t.Fatalf("depth 1: survival %v with accepted shallow steps, %v without, want higher", pm[0], pa[0])
	}
	// The deep steps' conditional survivals: depth j is reached by the
	// steps that accepted at least j−1 tokens, and survived by those
	// that accepted j. The pooled EWMA of the periodic sequence hovers
	// around them.
	for j := 1; j <= 4; j++ {
		risk, hit := 0, 0
		for _, a := range deep {
			if a >= j-1 {
				risk++
				if a >= j {
					hit++
				}
			}
		}
		if want := float64(hit) / float64(risk); math.Abs(pa[j-1]-want) > 0.15 {
			t.Fatalf("depth %d: pooled survival %.3f, want about %.3f", j, pa[j-1], want)
		}
	}
}

// TestSurvivalSeedsFromPool: a new request starts every depth from the
// engine-wide estimate, and an unreached depth from the optimistic
// prior.
func TestSurvivalSeedsFromPool(t *testing.T) {
	c := NewChooser()
	for i := 0; i < 20; i++ {
		observeAt(c, 1, 2, 0) // depth 1 always rejected; depth 2 never reached
	}
	c.Retire(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	tr := &shapeTrack{}
	p1, _ := c.pool[0].value()
	//lint:ignore floateq the seed is the pooled value itself
	if s := c.survivalLocked(tr, 1); s != p1 || s > 0.2 {
		t.Fatalf("new request's depth-1 survival %v, want the pooled %v", s, p1)
	}
	//lint:ignore floateq the prior is a constant
	if s := c.survivalLocked(tr, 3); s != priorSurvival {
		t.Fatalf("unreached depth 3 seeded at %v, want the prior %v", s, priorSurvival)
	}
}

// TestCostFitTwoRegressors: the fit recovers a cost that is linear in
// both nodes and levels, keeps every coefficient non-negative when the
// data slopes down, and caps an outlier sample at twice its prediction.
func TestCostFitTwoRegressors(t *testing.T) {
	const a, b, g = 5e-5, 2e-6, 7e-6
	cost := func(n, d int) float64 { return a + b*float64(n) + g*float64(d) }
	c := NewChooser()
	c.reqs[1] = &shapeTrack{}
	c.zeroCost.add(a, zeroCostAlpha) // the anchor lies on the line too
	for i := 0; i < 40; i++ {
		d := 1 + i%8
		n := d + 3*(i%3) // nodes vary apart from levels
		c.reqs[1].depth = d
		c.ObserveCost(1, n, cost(n, d))
	}
	m := c.Stats().Cost
	for _, p := range []struct {
		name      string
		got, want float64
	}{{"intercept", m.Intercept, a}, {"per node", m.PerNode, b}, {"per level", m.PerLevel, g}} {
		if math.Abs(p.got-p.want) > 1e-6*a {
			t.Fatalf("%s %g, want %g (fit %+v)", p.name, p.got, p.want, m)
		}
	}

	// Cost falling with nodes: no negative slope, and the prediction
	// stays positive over the whole range.
	down := NewChooser()
	down.reqs[1] = &shapeTrack{}
	down.zeroCost.add(a, zeroCostAlpha)
	for i := 0; i < 40; i++ {
		d, n := 2, 1+i%20
		down.reqs[1].depth = d
		down.ObserveCost(1, n, 1e-3-3e-5*float64(n))
	}
	dm := down.Stats().Cost
	if dm.Intercept < 0 || dm.PerNode < 0 || dm.PerLevel < 0 {
		t.Fatalf("fit %+v has a negative coefficient", dm)
	}

	// An outlier enters at most outlierCap times its prediction.
	before := c.Stats().Cost.At(20, 8)
	c.reqs[1].depth = 8
	c.ObserveCost(1, 20, 1)
	after := c.Stats().Cost.At(20, 8)
	if after > outlierCap*before {
		t.Fatalf("one 1 s sample moved the 20-node prediction from %g to %g", before, after)
	}
}

// TestChooserArgmaxOverDepth: with the estimates set, Choose grants the
// depth maximising expected tokens per second — zero when no depth
// beats an incremental step, the ceiling when cost is flat, and an
// interior depth when survival falls off faster than cost grows.
func TestChooserArgmaxOverDepth(t *testing.T) {
	nodes := []int{1, 2, 5, 8, 11, 14, 17, 20} // the paper's tree cut to each depth
	cases := []struct {
		name   string
		cost   func(n, d int) float64
		accept int // accept length of every verification
		want   int
	}{
		{"per-row", func(n, d int) float64 { return 1e-4 * float64(n+1+d) }, 8, 0},
		{"flat", func(n, d int) float64 { return 2e-4 }, 8, 8},
		{"interior", func(n, d int) float64 { return 2e-4 + 2e-5*float64(n) }, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChooser()
			c.reqs[1] = &shapeTrack{}
			c.ObserveCost(1, 0, 1e-4) // a zero step: c₀
			for i := 0; i < 60; i++ {
				d := 1 + i%8
				observeAt(c, 1, d, min(tc.accept, d))
				c.ObserveCost(1, nodes[d-1], tc.cost(nodes[d-1], d))
			}
			c.reqs[1].probed = false
			if got := c.Choose(1, nodes); got != tc.want {
				t.Fatalf("chose depth %d, want %d (cost fit %+v, survival %v)",
					got, tc.want, c.Stats().Cost, c.reqs[1].surv)
			}
		})
	}
}
