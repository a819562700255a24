package bench

import (
	"testing"

	"specinfer/internal/core"
)

// defaultServeFlags mirrors the specinfer/specinferd flag defaults.
func defaultServeFlags() ServeFlags {
	return ServeFlags{
		Dataset: "Alpaca", Substrate: "ngram", Mode: "tree",
		Width: 3, Depth: 8, SSMs: 1, Temperature: 1, Batch: 4, Seed: 1,
	}
}

// TestNewServingRejectsBadFlags: every flag value no engine can serve is
// an error from NewServing or core.NewEngine — never a panic — so the
// CLIs exit with a message instead of a stack trace.
func TestNewServingRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*ServeFlags)
	}{
		{"depth 0", func(f *ServeFlags) { f.Depth = 0 }},
		{"negative depth", func(f *ServeFlags) { f.Depth = -3 }},
		{"ssms 0", func(f *ServeFlags) { f.SSMs = 0 }},
		{"negative ssms", func(f *ServeFlags) { f.SSMs = -1 }},
		{"width 0", func(f *ServeFlags) { f.Width = 0 }},
		{"negative prefix cache", func(f *ServeFlags) { f.PrefixCacheMB = -5 }},
		{"unknown substrate", func(f *ServeFlags) { f.Substrate = "paged" }},
		{"unknown mode", func(f *ServeFlags) { f.Mode = "beam" }},
		{"unknown dataset", func(f *ServeFlags) { f.Dataset = "nope" }},
		{"transformer with ssm pool", func(f *ServeFlags) { f.Substrate, f.SSMs = "transformer", 2 }},
		{"adaptive incremental", func(f *ServeFlags) { f.Mode, f.Adaptive = "incremental", true }},
		{"adaptive sequence", func(f *ServeFlags) { f.Mode, f.Adaptive = "sequence", true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := defaultServeFlags()
			tc.edit(&f)
			sv, err := NewServing(f)
			if err == nil {
				_, err = core.NewEngine(sv.Config)
			}
			if err == nil {
				t.Fatalf("flags %+v accepted", f)
			}
		})
	}
}

// TestNewServingSubstrates: both substrates resolve to a servable
// engine in every mode, and the ngram tree mode builds the merged SSM
// pool.
func TestNewServingSubstrates(t *testing.T) {
	for _, substrate := range []string{"ngram", "transformer"} {
		for _, mode := range []string{"incremental", "sequence", "tree"} {
			f := defaultServeFlags()
			f.Substrate, f.Mode = substrate, mode
			sv, err := NewServing(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", substrate, mode, err)
			}
			e, err := core.NewEngine(sv.Config)
			if err != nil {
				t.Fatalf("%s/%s: %v", substrate, mode, err)
			}
			res, _ := e.Run(sv.Trace(1, 4))
			if len(res) != 1 || len(res[0].Output) != 4 {
				t.Fatalf("%s/%s: served %+v", substrate, mode, res)
			}
		}
	}
	f := defaultServeFlags()
	f.SSMs = 3
	sv, err := NewServing(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sv.Config.SSMs); got != 3 {
		t.Fatalf("-ssms 3 built a pool of %d", got)
	}
}
