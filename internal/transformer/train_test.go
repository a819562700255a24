package transformer

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"specinfer/internal/sampling"
	"specinfer/internal/tensor"
)

func trainConfig(seed uint64) Config {
	return Config{
		Name:   "train-test",
		Vocab:  12,
		Hidden: 8,
		Heads:  2,
		FFN:    12,
		Layers: 2,
		Seed:   seed,
	}
}

// TestGradientCheck compares every analytic gradient against central
// finite differences on a tiny model. This validates the entire backward
// pass: embedding, RoPE, attention, softmax, SwiGLU, RMSNorm, LM head.
func TestGradientCheck(t *testing.T) {
	m := New(trainConfig(3))
	tr := NewTrainer(m, 1e-3)
	seq := []int{1, 5, 9, 2, 7}

	tr.LossAndGrads(seq)
	// Snapshot analytic grads.
	analytic := make([][]float32, len(tr.params))
	for i := range tr.params {
		analytic[i] = append([]float32(nil), tr.params[i].grad...)
	}

	const h = 2e-3
	rng := tensor.NewRNG(9)
	checked := 0
	for pi := range tr.params {
		p := &tr.params[pi]
		// Probe the largest-magnitude gradient of each tensor (strong
		// signal, tight check) plus two random entries (loose check:
		// float32 forward noise dominates finite differences of tiny
		// gradients, so those only need the right order of magnitude).
		maxJ := 0
		for j := range analytic[pi] {
			if math.Abs(float64(analytic[pi][j])) > math.Abs(float64(analytic[pi][maxJ])) {
				maxJ = j
			}
		}
		probes := []int{maxJ, rng.Intn(len(p.data)), rng.Intn(len(p.data))}
		for pi2, j := range probes {
			orig := p.data[j]
			p.data[j] = orig + h
			lPlus := tr.LossAndGrads(seq)
			p.data[j] = orig - h
			lMinus := tr.LossAndGrads(seq)
			p.data[j] = orig
			numeric := (lPlus - lMinus) / (2 * h)
			got := float64(analytic[pi][j])
			floor := 2e-3 // noise floor for random probes
			tol := 0.10
			if pi2 == 0 {
				floor, tol = 1e-4, 0.05 // the max-gradient probe is strict
			}
			denom := math.Abs(numeric) + math.Abs(got) + floor
			if math.Abs(numeric-got)/denom > tol {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v",
					p.name, j, got, numeric)
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d gradient probes ran", checked)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	m := New(trainConfig(4))
	tr := NewTrainer(m, 5e-3)
	// A fixed repetitive sequence: the model must memorize it.
	seq := []int{1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5}
	first := tr.Step(seq)
	var last float64
	for i := 0; i < 150; i++ {
		last = tr.Step(seq)
	}
	if last > first*0.5 {
		t.Fatalf("loss did not drop: %.4f -> %.4f", first, last)
	}
	// After memorization the model must greedily reproduce the pattern.
	sess := m.NewSession()
	d := sess.Prefill([]int{1, 2, 3})
	tok, _ := tensor.ArgMax(d)
	if tok != 4 {
		t.Fatalf("memorized model predicts %d after 1,2,3; want 4", tok)
	}
}

// TestDistillationImprovesAgreement is the neural-substrate boost-tuning
// story: a student transformer distilled on a teacher's generations must
// agree with the teacher's greedy choices far more often than its random
// initialization did.
func TestDistillationImprovesAgreement(t *testing.T) {
	teacher := New(Config{
		Name: "teacher", Vocab: 24, Hidden: 24, Heads: 2, FFN: 48, Layers: 2, Seed: 7,
	})
	student := New(Config{
		Name: "student", Vocab: 24, Hidden: 16, Heads: 2, FFN: 32, Layers: 1, Seed: 8,
	})

	rng := tensor.NewRNG(11)
	genPrompt := func() []int {
		p := make([]int, 4)
		for i := range p {
			p[i] = rng.Intn(24)
		}
		return p
	}
	agreement := func() float64 {
		probe := tensor.NewRNG(99)
		greedy := sampling.GreedyConfig()
		agree, total := 0, 0
		for trial := 0; trial < 40; trial++ {
			prompt := make([]int, 4)
			for i := range prompt {
				prompt[i] = probe.Intn(24)
			}
			ts, ss := teacher.NewSession(), student.NewSession()
			td, sd := ts.Prefill(prompt), ss.Prefill(prompt)
			for step := 0; step < 6; step++ {
				tt := greedy.Sample(probe, td)
				st := greedy.Sample(probe, sd)
				if tt == st {
					agree++
				}
				total++
				td, sd = ts.Decode(tt), ss.Decode(tt)
			}
		}
		return float64(agree) / float64(total)
	}

	before := agreement()
	trainer := NewTrainer(student, 3e-3)
	Distill(trainer, teacher, genPrompt, 8, 400, 13)
	after := agreement()

	t.Logf("teacher-student greedy agreement: %.2f -> %.2f", before, after)
	if after < before+0.15 {
		t.Fatalf("distillation did not help: %.2f -> %.2f", before, after)
	}
	if after < 0.35 {
		t.Fatalf("distilled agreement %.2f too low", after)
	}
}

func TestTrainerRejectsOPT(t *testing.T) {
	cfg := optConfig(5)
	m := New(cfg)
	defer func() {
		if recover() == nil {
			t.Fatal("training an OPT model must panic")
		}
	}()
	NewTrainer(m, 0)
}

func TestTrainerRejectsShortSequence(t *testing.T) {
	m := New(trainConfig(6))
	tr := NewTrainer(m, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("short sequence must panic")
		}
	}()
	tr.Step([]int{1})
}

// TestForwardAfterTrainStepMatchesReference: Trainer updates the float
// weights in place, and the packed view the batched path multiplies by
// must follow. A forward pass, a Step, then another forward pass must
// equal the reference path, which reads the float weights directly.
func TestForwardAfterTrainStepMatchesReference(t *testing.T) {
	m := New(goldenConfigs()[0])
	prompt := []int{3, 14, 15, 9, 26, 5}
	before := m.NewSession().Prefill(prompt)
	NewTrainer(m, 0).Step([]int{3, 14, 15, 9, 26, 5, 35, 8, 9, 7})

	bat, ref := m.NewSession(), m.Reference().NewSession()
	got, want := bat.Prefill(prompt), ref.Prefill(prompt)
	if maxAbsDiff(before, got) == 0 {
		t.Fatal("the training step left the output unchanged; the test cannot see a stale view")
	}
	requireExact(t, "prefill after Step", got, want)
	for _, tok := range []int{2, 40, 11} {
		requireExact(t, "decode after Step", bat.Decode(tok), ref.Decode(tok))
	}
}

// TestDistilledWeightsGolden pins the bits of a short distillation run
// on the e2ebench geometry (perf-LLM teaching perf-SSM), followed by
// steps on sequences that shrink and grow, so a trainer that reuses its
// step workspace across calls of different lengths must still produce
// every weight bit for bit. The hash was recorded before the workspace
// existed.
func TestDistilledWeightsGolden(t *testing.T) {
	teacher := New(Config{Name: "perf-LLM", Vocab: 256, Hidden: 64, Heads: 4, FFN: 160, Layers: 4, Seed: 61})
	student := New(Config{Name: "perf-SSM", Vocab: 256, Hidden: 32, Heads: 4, FFN: 64, Layers: 2, Seed: 62})
	tr := NewTrainer(student, 3e-3)
	rng := tensor.NewRNG(4242)
	genPrompt := func() []int {
		p := make([]int, 16)
		for i := range p {
			p[i] = rng.Intn(192)
		}
		return p
	}
	loss := Distill(tr, teacher, genPrompt, 16, 12, 4242)
	for _, n := range []int{5, 40, 2, 17} {
		seq := make([]int, n)
		for i := range seq {
			seq[i] = rng.Intn(256)
		}
		loss += tr.Step(seq)
	}
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(loss))
	h.Write(b[:])
	for _, p := range tr.params {
		for _, v := range p.data {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	const want = uint64(0x8ccb8b5f9246f029)
	if got := h.Sum64(); got != want {
		t.Fatalf("distilled weights hash %#x, want %#x", got, want)
	}
}
