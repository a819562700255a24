// Package model defines the interface every language-model substrate in
// this repository implements (the pure-Go transformer and the n-gram LM),
// plus the geometry specifications of the paper's models used by the
// hardware cost model.
//
// The central design decision of the reproduction lives here: the serving
// engine consumes a Model — a provider of next-token *distributions* — and
// is completely decoupled from the analytical cost model, which consumes a
// Spec — the parameter geometry of the paper's LLaMA/OPT checkpoints.
// Token-level behaviour (acceptance rates, verified tokens per step) is
// measured on real, runnable models; latency is then derived by pricing
// those measured counts on simulated A10-class hardware.
package model

import "specinfer/internal/tree"

// Token is a vocabulary id (alias of tree.Token).
type Token = tree.Token

// Model is a causal language model. Implementations must be safe for
// concurrent use of *distinct* sessions; a single Session is not
// goroutine-safe.
type Model interface {
	// Name identifies the model (for logs and experiment tables).
	Name() string
	// VocabSize is the size of the output distribution.
	VocabSize() int
	// NewSession creates fresh per-request decoding state (a KV cache for
	// the transformer, a context window for the n-gram model).
	NewSession() Session
}

// Session is per-request decoding state. All returned distributions are
// probabilities at temperature 1 over the model vocabulary; samplers apply
// temperature / top-k / top-p downstream.
//
// The distribution Prefill returns is owned by the caller
// (implementations must not reuse its backing array). Those Decode,
// Accept and DecodeTree return are borrowed: see each method.
type Session interface {
	// Prefill processes the prompt in one pass and returns the next-token
	// distribution after its last token. Must be called exactly once,
	// before any Decode/DecodeTree.
	Prefill(prompt []Token) []float32

	// Decode commits one token to the sequence and returns the next-token
	// distribution. This is the paper's incremental-decoding step.
	//
	// The distribution may be the session's own storage: it stays valid
	// until the session's next Prefill, Decode, Accept or Close. Callers
	// must treat it as read-only and copy whatever they keep longer.
	Decode(tok Token) []float32

	// DecodeTree scores a speculated token tree rooted at the last
	// committed token: it returns probs[id] = next-token distribution
	// conditioned on S_id (the root-to-id token sequence appended to the
	// committed context), for every node id of the tree, including the
	// root. The committed state is NOT advanced — call Accept with the
	// verified tokens afterwards. This is SpecInfer's tree-based parallel
	// decoding (§4.2).
	//
	// The returned distributions, and the slice holding them, may be
	// the session's own storage, reused once the scored tree is dropped:
	// they stay valid only until the session's next Accept, Decode,
	// Prefill or Close, or the next DecodeTree that does not extend t
	// (extending means t itself, grown by appended nodes, every scored
	// node unchanged). When t comes back extended, implementations may
	// return the distributions of nodes scored by the earlier call from
	// retention — the same values a fresh computation gives — and those
	// stay valid as well. Callers must treat them as read-only and copy
	// whatever they keep longer.
	DecodeTree(t *tree.Tree) [][]float32

	// Accept commits a sequence of verified tokens (excluding the tree
	// root, which is already committed) and returns the next-token
	// distribution after the last one. Implementations may reuse KV
	// entries computed by the immediately preceding DecodeTree call when
	// the tokens follow a path of that tree. Its distribution is borrowed
	// as Decode's is.
	Accept(tokens []Token) []float32

	// Len reports the number of committed tokens (prompt included).
	Len() int
}

// Closer is optionally implemented by Sessions that hold releasable
// resources (e.g. the transformer's paged KV arena and pooled
// workspace). The serving engine closes a request's sessions when the
// request retires; a closed Session must not be used again (the
// transformer's panics).
type Closer interface {
	Close()
}

// CacheSizer is optionally implemented by Sessions that can report the
// bytes of KV-cache storage they currently hold. The serving engine uses
// it for per-request cache accounting in its iteration records.
type CacheSizer interface {
	CacheBytes() int
}
