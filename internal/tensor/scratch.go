package tensor

// Scratch is a grow-only arena of named float32 buffers for hot loops
// that would otherwise allocate per call. Buffers are keyed by purpose
// ("q", "logits", ...) and resized on demand: a key's storage grows but is
// never released, so after warm-up a steady-state caller performs zero
// allocations through the arena.
//
// Returned buffers alias arena storage: their contents are undefined on
// return (callers must fully overwrite before reading) and are only valid
// until the next request for the SAME key. A Scratch is not safe for
// concurrent use; give each goroutine (session) its own.
type Scratch struct {
	floats map[string][]float32
	mats   map[string]*Matrix
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch {
	return &Scratch{
		floats: make(map[string][]float32),
		mats:   make(map[string]*Matrix),
	}
}

// Floats returns a length-n buffer for key, reusing (and growing) the
// key's storage across calls.
func (s *Scratch) Floats(key string, n int) []float32 {
	buf := s.floats[key]
	if cap(buf) < n {
		buf = make([]float32, n)
		s.floats[key] = buf
	}
	//lint:ignore aliasret Scratch's contract IS the aliasing arena: callers own the window only until their next Floats call
	return buf[:n]
}

// Mat returns a rows x cols matrix for key, reusing (and growing) the
// key's storage across calls. The same *Matrix header is returned for a
// given key, re-dimensioned per call.
func (s *Scratch) Mat(key string, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("tensor: Scratch.Mat invalid dims")
	}
	m := s.mats[key]
	if m == nil {
		m = &Matrix{}
		s.mats[key] = m
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float32, n)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}
