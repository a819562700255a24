package policy

import (
	"reflect"
	"sync"
	"testing"

	"specinfer/internal/tree"
)

func mustController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestModeRule walks the mode-switch rule over the queue-depth
// threshold and the full-batch condition, including the exact flip
// point at queueHighWater.
func TestModeRule(t *testing.T) {
	c := mustController(t, Config{})
	cases := []struct {
		name                    string
		queue, active, maxBatch int
		want                    Mode
	}{
		{"idle", 0, 0, 8, Latency},
		{"underfull no queue", 0, 3, 8, Latency},
		{"queue below threshold", queueHighWater - 1, 3, 8, Latency},
		{"queue at threshold flips", queueHighWater, 3, 8, Throughput},
		{"queue above threshold", queueHighWater + 5, 3, 8, Throughput},
		{"full batch empty queue", 0, 8, 8, Throughput},
		{"full batch one queued", 1, 8, 8, Throughput},
		{"overfull batch queued", 1, 9, 8, Throughput},
		{"full batch unknown cap", 1, 8, 0, Latency},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := c.ModeFor(tc.queue, tc.active, tc.maxBatch); got != tc.want {
				t.Fatalf("ModeFor(%d,%d,%d) = %v, want %v",
					tc.queue, tc.active, tc.maxBatch, got, tc.want)
			}
			if got := c.Decide(1, tc.queue, tc.active, tc.maxBatch).Mode; got != tc.want {
				t.Fatalf("Decide mode = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestDecisionBudgets checks the EWMA-to-budget scaling against the
// per-mode ceilings, including the degenerate MaxNodes=1 and
// FanoutCap=1 ceilings.
func TestDecisionBudgets(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		ewma  []int // Observe sequence for request 1 before deciding
		queue int
		want  tree.Budget
		ssms  int
	}{
		{
			name: "fresh request uses InitAcceptLen",
			cfg:  Config{InitAcceptLen: 2, NodesPerAccept: 2},
			// nodes = ceil(3*2) = 6, depth = ceil(2)+1 = 3
			want: tree.Budget{MaxNodes: 6, MaxDepth: 3, FanoutCap: 3},
		},
		{
			name: "high acceptance saturates the latency ceiling",
			cfg:  Config{Latency: tree.Budget{MaxNodes: 10, MaxDepth: 4, FanoutCap: 2}},
			ewma: []int{8, 8, 8, 8, 8, 8, 8, 8, 8, 8},
			want: tree.Budget{MaxNodes: 10, MaxDepth: 4, FanoutCap: 2},
		},
		{
			name: "zero acceptance shrinks the tree",
			ewma: []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			// ewma = 2*0.7^10 ≈ 0.056: nodes = ceil(1.056*2) = 3,
			// depth = ceil(0.056)+1 = 2. A request's own EWMA never
			// reaches zero; the pooled seed's stub tree is
			// TestNewRequestsSeedFromPooledAcceptance's.
			want: tree.Budget{MaxNodes: 3, MaxDepth: 2, FanoutCap: 3},
		},
		{
			name:  "throughput ceiling MaxNodes=1 FanoutCap=1",
			cfg:   Config{Throughput: tree.Budget{MaxNodes: 1, MaxDepth: 1, FanoutCap: 1}},
			ewma:  []int{8, 8, 8},
			queue: 100,
			want:  tree.Budget{MaxNodes: 1, MaxDepth: 1, FanoutCap: 1},
			ssms:  1,
		},
		{
			name:  "MinPathProb rides along from the ceiling",
			cfg:   Config{Latency: tree.Budget{MaxNodes: 8, MaxDepth: 4, FanoutCap: 2, MinPathProb: 0.25}},
			want:  tree.Budget{MaxNodes: 6, MaxDepth: 3, FanoutCap: 2, MinPathProb: 0.25},
			queue: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustController(t, tc.cfg)
			for _, a := range tc.ewma {
				c.Observe(1, a)
			}
			d := c.Decide(1, tc.queue, 1, 8)
			if d.Budget != tc.want {
				t.Fatalf("budget = %+v, want %+v", d.Budget, tc.want)
			}
			if tc.ssms != 0 && d.SSMs != tc.ssms {
				t.Fatalf("ssms = %d, want %d", d.SSMs, tc.ssms)
			}
		})
	}
}

// TestObserveIgnoresFailedVerification: the engine's -1 sentinel for a
// failed verification must not poison the EWMA.
func TestObserveIgnoresFailedVerification(t *testing.T) {
	c := mustController(t, Config{})
	c.Observe(7, 5)
	before := c.Decide(7, 0, 1, 8)
	c.Observe(7, -1)
	after := c.Decide(7, 0, 1, 8)
	if before != after {
		t.Fatalf("failed verification changed the decision: %+v -> %+v", before, after)
	}
}

// TestRetireBoundsHistory: retiring requests must drop their EWMA
// entries so the map is bounded by the active set, not the lifetime
// request count.
func TestRetireBoundsHistory(t *testing.T) {
	c := mustController(t, Config{})
	for id := 0; id < 1000; id++ {
		c.Decide(id, 0, 1, 8)
		c.Observe(id, 3)
		c.Retire(id)
	}
	if n := c.Tracked(); n != 0 {
		t.Fatalf("tracked %d requests after all retired, want 0", n)
	}
}

// TestDecideDeterministic: identical observation sequences yield
// identical decision sequences — the property the engine's
// any-Workers determinism rests on.
func TestDecideDeterministic(t *testing.T) {
	run := func() []Decision {
		c := mustController(t, Config{})
		var out []Decision
		for i := 0; i < 50; i++ {
			d := c.Decide(i%4, i%7, i%3, 4)
			out = append(out, d)
			c.Observe(i%4, i%5)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestStatsCounters: decision counts split by mode, tracked set follows
// observe/retire.
func TestStatsCounters(t *testing.T) {
	c := mustController(t, Config{})
	c.Decide(1, 0, 1, 8)              // latency
	c.Decide(1, queueHighWater, 1, 8) // throughput
	c.Decide(2, queueHighWater, 1, 8) // throughput
	c.Observe(1, 2)
	st := c.Stats()
	if st.LatencyDecisions != 1 || st.ThroughputDecisions != 2 {
		t.Fatalf("decision counts = %d/%d, want 1/2", st.LatencyDecisions, st.ThroughputDecisions)
	}
	if st.TrackedRequests != 1 {
		t.Fatalf("tracked = %d, want 1", st.TrackedRequests)
	}
}

// TestControllerConcurrentAccess drives all methods from racing
// goroutines; meaningful under -race (make race runs it).
func TestControllerConcurrentAccess(t *testing.T) {
	c := mustController(t, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := g*1000 + i
				c.Decide(id, i, 1, 8)
				c.Observe(id, i%6)
				c.Stats()
				c.Retire(id)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Tracked(); n != 0 {
		t.Fatalf("tracked %d after concurrent retire, want 0", n)
	}
}

// TestConfigValidation rejects out-of-range fields.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{InitAcceptLen: -1},
		{NodesPerAccept: -2},
		{Latency: tree.Budget{MaxNodes: -1, MaxDepth: 1, FanoutCap: 1}},
		{Throughput: tree.Budget{MaxNodes: 1, MaxDepth: 1, FanoutCap: -1}},
	}
	for i, cfg := range bad {
		if _, err := NewController(cfg); err == nil {
			t.Errorf("case %d: NewController(%+v) accepted invalid config", i, cfg)
		}
	}
	if _, err := NewController(Config{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

// decodeCost is a synthetic zero-budget step time, in seconds.
const decodeCost = 1e-4

// floor is the rule priced by a Chooser, as a live engine with one SSM
// runs it: the rule's budget is the ceiling the chooser cuts.
type floor struct {
	*Controller
	shapes *Chooser
}

func newFloor(t *testing.T) floor {
	return floor{mustController(t, Config{}), NewChooser()}
}

// runFloor drives one request through steps decisions, feeding back the
// accept length and the step cost the two callbacks assign, and returns
// the granted node budgets (0 = zero-budget step).
func runFloor(f floor, id, steps int, accepted func(nodes int) int, cost func(nodes int) float64) []int {
	out := make([]int, steps)
	for i := range out {
		f.Track(id)
		b := f.Decide(id, 0, 1, 8).Budget.WithDefaults()
		var nodes []int
		for depth, ceiling := 1, b.MaxDepth; depth <= ceiling; depth++ {
			b.MaxDepth = depth
			nodes = append(nodes, b.Capacity())
		}
		n := 0
		if f.shapes.Choose(id, nodes) > 0 {
			n = b.MaxNodes
		}
		out[i] = n
		if n > 0 {
			f.Observe(id, accepted(n))
			f.shapes.ObserveAccept(id, accepted(n))
		}
		f.shapes.ObserveCost(id, n, cost(n))
	}
	return out
}

// retire drops a request from the rule and the chooser.
func (f floor) retire(id int) {
	f.Retire(id)
	f.shapes.Retire(id)
}

// requireRefreshOnly fails unless every zero budget in budgets is an
// isolated refresh step: at least maxProbeBackoff speculative steps
// before the next zero one.
func requireRefreshOnly(t *testing.T, budgets []int) {
	t.Helper()
	last := -maxProbeBackoff - 1
	for i, n := range budgets {
		if n != 0 {
			continue
		}
		if i-last <= maxProbeBackoff {
			t.Fatalf("zero budgets at steps %d and %d, want >= %d speculative steps between: %v",
				last, i, maxProbeBackoff, budgets)
		}
		last = i
	}
}

// TestFloorStaysOffWhenSpeculationPays: with a flat verify cost (a tree
// costs one decode, §4.2's premise) and high acceptance, the floor never
// fires: the only zero budgets are the bootstrap step that measures the
// decode cost and one refresh step per maxProbeBackoff speculative
// steps that keeps that measurement current.
func TestFloorStaysOffWhenSpeculationPays(t *testing.T) {
	f := newFloor(t)
	budgets := runFloor(f, 1, 200,
		func(int) int { return 3 },
		func(int) float64 { return decodeCost })
	if budgets[0] != 0 {
		t.Fatalf("first decision budget %d, want the zero-step bootstrap", budgets[0])
	}
	requireRefreshOnly(t, budgets[1:])
	if z, max := f.shapes.Stats().ZeroSteps, uint64(1+200/(maxProbeBackoff+1)); z > max {
		t.Fatalf("ZeroSteps = %d, want <= %d (bootstrap and refreshes)", z, max)
	}
}

// TestFloorFiresAndProbesOnBackoff: with a linear cost (K rows cost K
// decodes) and nothing accepted, the controller floors within a few
// steps, then probes the rule's budget after 1, 2, 4, … up to
// maxProbeBackoff zero steps, so speculative steps settle well under 1/8
// of all steps.
func TestFloorFiresAndProbesOnBackoff(t *testing.T) {
	f := newFloor(t)
	budgets := runFloor(f, 1, 600,
		func(int) int { return 0 },
		func(n int) float64 { return decodeCost * float64(n+1) })
	// Bootstrap: one zero step, one speculative step; then floored.
	if budgets[0] != 0 || budgets[1] == 0 || budgets[2] != 0 {
		t.Fatalf("bootstrap budgets %v, want zero, speculative, zero", budgets[:3])
	}
	var runs []int // zero-step runs between probes
	run, spec := 0, 0
	for _, n := range budgets[2:] {
		if n == 0 {
			run++
			continue
		}
		spec++
		runs = append(runs, run)
		run = 0
	}
	want := []int{1, 2, 4, 8, 16, 32, 64, maxProbeBackoff, maxProbeBackoff}
	if len(runs) < len(want) || !reflect.DeepEqual(runs[:len(want)], want) {
		t.Fatalf("zero runs between probes %v, want prefix %v", runs, want)
	}
	if share := float64(spec+1) / float64(len(budgets)); share > 1.0/8 {
		t.Fatalf("speculative share %.3f, want <= 1/8", share)
	}
}

// TestFloorProbeWinResetsBackoff: a floored request whose regime turns
// (speculation now pays) is noticed at its next probe; the win resets
// the backoff, so probes follow every other step until the estimates
// agree, and from then on the request speculates on every step but the
// rationed zero-cost refreshes.
func TestFloorProbeWinResetsBackoff(t *testing.T) {
	f := newFloor(t)
	runFloor(f, 1, 200,
		func(int) int { return 0 },
		func(n int) float64 { return decodeCost * float64(n+1) })
	budgets := runFloor(f, 1, 120,
		func(int) int { return 4 },
		func(int) float64 { return decodeCost })
	first := -1 // first speculative step
	for i, n := range budgets {
		if n > 0 {
			first = i
			break
		}
	}
	if first < 0 || first > maxProbeBackoff {
		t.Fatalf("first probe after the regime change at step %d, want within %d", first, maxProbeBackoff)
	}
	// Within a few steps of the first probe the estimates agree and only
	// the rationed refresh steps are zero.
	requireRefreshOnly(t, budgets[first+8:])
}

// TestNewRequestsSeedFromPooledAcceptance: once the engine has measured
// acceptance, a new request starts from the engine-wide EWMA instead of
// InitAcceptLen.
func TestNewRequestsSeedFromPooledAcceptance(t *testing.T) {
	c := mustController(t, Config{InitAcceptLen: 2, NodesPerAccept: 2})
	if d := c.Decide(9, 0, 1, 8); d.Budget.MaxNodes != 6 {
		t.Fatalf("fresh engine budget %d, want 6 from InitAcceptLen", d.Budget.MaxNodes)
	}
	for id := 0; id < 4; id++ {
		for i := 0; i < 10; i++ {
			c.Observe(id, 0)
		}
		c.Retire(id)
	}
	// Pooled EWMA is 0: nodes = ceil(1*2) = 2, depth = 1.
	want := tree.Budget{MaxNodes: 2, MaxDepth: 1, FanoutCap: 3}
	if d := c.Decide(9, 0, 1, 8); d.Budget != want {
		t.Fatalf("new request budget %+v, want %+v from the pooled EWMA", d.Budget, want)
	}
}

// TestFloorProbesAcrossShortRequests: the probe backoff counts zero
// steps engine-wide, so a stream of requests too short to reach the
// backoff cap on their own still probes, at no more than about one step
// in maxProbeBackoff once the backoff has grown.
func TestFloorProbesAcrossShortRequests(t *testing.T) {
	f := newFloor(t)
	const reqs, steps = 200, 8
	spec := 0
	for id := 0; id < reqs; id++ {
		for _, n := range runFloor(f, id, steps,
			func(int) int { return 0 },
			func(n int) float64 { return decodeCost * float64(n+1) }) {
			if n > 0 && id >= reqs/2 {
				spec++
			}
		}
		f.retire(id)
	}
	// Second half: the backoff sits at its cap.
	total := reqs / 2 * steps
	if spec == 0 || spec > total/maxProbeBackoff+1 {
		t.Fatalf("%d probes in %d steps of short requests, want about %d",
			spec, total, total/(maxProbeBackoff+1))
	}
}
