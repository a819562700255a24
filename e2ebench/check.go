package main

import (
	"fmt"

	"specinfer/internal/core"
	"specinfer/internal/model"
	"specinfer/internal/sampling"
	"specinfer/internal/workload"
)

// check runs the workload's output checks.
func (w *workloadSpec) check(llm model.Model, reqs []workload.Request, phases ...[]sample) error {
	if w.stochastic {
		checkSampled(reqs, llm.VocabSize(), phases...)
		return nil
	}
	return checkGreedy(llm, reqs, phases...)
}

// checkGreedy compares every greedy sample, token for token, with an
// offline incremental core.Engine.Run over the same requests (each
// distinct prompt once), and marks mismatches failed. It runs after the
// measured phases.
func checkGreedy(llm model.Model, reqs []workload.Request, phases ...[]sample) error {
	key := func(r workload.Request) string { return fmt.Sprint(r.MaxNewTok, r.Prompt) }
	slot := map[string]int{}
	var served []workload.Request
	for _, ss := range phases {
		for _, s := range ss {
			r := reqs[s.req]
			if _, ok := slot[key(r)]; !ok {
				slot[key(r)] = len(served)
				r.ID = len(served)
				served = append(served, r)
			}
		}
	}
	eng, err := core.NewEngine(core.Config{
		Mode: core.Incremental, LLM: llm, Sample: sampling.GreedyConfig(),
		MaxBatch: 8, PrefixCacheBytes: 64 << 20,
	})
	if err != nil {
		return fmt.Errorf("reference engine: %w", err)
	}
	want, _ := eng.Run(served)
	for _, w := range want {
		if w.Err != nil {
			return fmt.Errorf("reference request %d: %w", w.ID, w.Err)
		}
	}
	for _, ss := range phases {
		for k := range ss {
			if !equalTokens(ss[k].output, want[slot[key(reqs[ss[k].req])]].Output) {
				ss[k].failed = true
			}
		}
	}
	return nil
}

// checkSampled checks stochastic outputs, which have no reference: each
// must be exactly the requested length and in vocabulary. Engine errors
// already marked their samples failed.
func checkSampled(reqs []workload.Request, vocab int, phases ...[]sample) {
	for _, ss := range phases {
		for k := range ss {
			s := &ss[k]
			if len(s.output) != reqs[s.req].MaxNewTok {
				s.failed = true
			}
			for _, tok := range s.output {
				if tok < 0 || tok >= vocab {
					s.failed = true
				}
			}
		}
	}
}

func countFailed(phases ...[]sample) (attempted, failed int) {
	for _, ss := range phases {
		for _, s := range ss {
			attempted++
			if s.failed {
				failed++
			}
		}
	}
	return attempted, failed
}
