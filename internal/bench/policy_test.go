package bench

import "testing"

// TestPolicyBurstyGate is the PR 10 acceptance gate, computed live from
// a deterministic co-simulation on the A10 clock: on the bursty trace the adaptive policy must deliver at least 1.2x the
// serving tokens/sec of the BEST static tree shape, at equal-or-better
// p99 request latency. The two statics are the policy's own operating
// points, so the margin is purely from switching shape per iteration.
func TestPolicyBurstyGate(t *testing.T) {
	adaptive := RunPolicyBursty("adaptive")
	deep := RunPolicyBursty("static-deep")
	narrow := RunPolicyBursty("static-narrow")

	t.Logf("adaptive:      %6.1f tok/s  p99 %7.1f ms  (lat %d / thr %d iters)",
		adaptive.TokensPerSec, adaptive.P99Ms, adaptive.LatencyIters, adaptive.ThroughputIters)
	t.Logf("static-deep:   %6.1f tok/s  p99 %7.1f ms", deep.TokensPerSec, deep.P99Ms)
	t.Logf("static-narrow: %6.1f tok/s  p99 %7.1f ms", narrow.TokensPerSec, narrow.P99Ms)

	if adaptive.Tokens != deep.Tokens || adaptive.Tokens != narrow.Tokens {
		t.Errorf("shapes decoded different token counts: adaptive=%d deep=%d narrow=%d",
			adaptive.Tokens, deep.Tokens, narrow.Tokens)
	}
	if adaptive.LatencyIters == 0 || adaptive.ThroughputIters == 0 {
		t.Errorf("adaptive policy never switched modes: lat=%d thr=%d",
			adaptive.LatencyIters, adaptive.ThroughputIters)
	}

	best := deep
	if narrow.TokensPerSec > best.TokensPerSec {
		best = narrow
	}
	const minGain = 1.2
	if adaptive.TokensPerSec < minGain*best.TokensPerSec {
		t.Errorf("adaptive tokens/sec %.1f < %.1fx best static %.1f",
			adaptive.TokensPerSec, minGain, best.TokensPerSec)
	}
	// Equal-or-better tail vs the static it must beat on throughput; 1%
	// slack absorbs pricing-constant tweaks without weakening the claim.
	if adaptive.P99Ms > best.P99Ms*1.01 {
		t.Errorf("adaptive p99 %.1f ms worse than best static's %.1f ms",
			adaptive.P99Ms, best.P99Ms)
	}
}

// TestPolicyBurstyDeterministic re-runs the adaptive shape and demands a
// bit-identical result — the gate (and the committed benchmark numbers)
// must not depend on run-to-run noise.
func TestPolicyBurstyDeterministic(t *testing.T) {
	a := RunPolicyBursty("adaptive")
	b := RunPolicyBursty("adaptive")
	if a != b {
		t.Errorf("adaptive run not deterministic:\n  %+v\n  %+v", a, b)
	}
}
