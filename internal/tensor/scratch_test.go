package tensor

import "testing"

// TestScratchDistinctKeysDoNotAlias: buffers under different keys are
// independent storage — writing one never disturbs another, for every
// buffer kind the arena hands out.
func TestScratchDistinctKeysDoNotAlias(t *testing.T) {
	s := NewScratch()
	a := s.Floats("a", 8)
	b := s.Floats("b", 8)
	for i := range a {
		a[i] = 1
	}
	for i := range b {
		b[i] = 2
	}
	for i := range a {
		if a[i] != 1 || b[i] != 2 {
			t.Fatalf("float buffers alias: a[%d]=%v b[%d]=%v", i, a[i], i, b[i])
		}
	}

	m := s.Mat("a", 2, 4) // same key string, different kind: still distinct
	for i := range m.Data {
		m.Data[i] = 3
	}
	if a[0] != 1 {
		t.Fatalf("matrix buffer clobbered float storage: a[0]=%v", a[0])
	}
}

// TestScratchReusesStorage: re-requesting a key at the same or smaller
// size returns the SAME backing array (that is the whole point of the
// arena), and the steady state allocates nothing.
func TestScratchReusesStorage(t *testing.T) {
	s := NewScratch()
	f1 := s.Floats("k", 16)
	f2 := s.Floats("k", 16)
	if &f1[0] != &f2[0] {
		t.Fatal("Floats did not reuse backing storage for the same key")
	}
	f3 := s.Floats("k", 8) // shrink: same storage, shorter window
	if len(f3) != 8 || &f3[0] != &f1[0] {
		t.Fatal("smaller request should re-slice the existing storage")
	}

	allocs := testing.AllocsPerRun(100, func() {
		_ = s.Floats("k", 16)
		_ = s.Mat("k", 2, 8)
	})
	if allocs != 0 {
		t.Fatalf("steady-state arena requests allocate %v per run; want 0", allocs)
	}
}

// TestScratchGrowth: a larger request grows the key's storage; the
// returned window has the requested length and is writable end to end.
func TestScratchGrowth(t *testing.T) {
	s := NewScratch()
	small := s.Floats("g", 4)
	for i := range small {
		small[i] = float32(i)
	}
	big := s.Floats("g", 64)
	if len(big) != 64 {
		t.Fatalf("grown buffer length %d, want 64", len(big))
	}
	for i := range big {
		big[i] = -1
	}
}

// TestScratchMat: the Mat view re-dimensions the same header and grows
// its storage like the flat buffers do.
func TestScratchMat(t *testing.T) {
	s := NewScratch()
	m1 := s.Mat("m", 2, 3)
	m1.Set(1, 2, 42)
	m2 := s.Mat("m", 3, 2)
	if m1 != m2 {
		t.Fatal("Mat should return the same header per key")
	}
	if m2.Rows != 3 || m2.Cols != 2 {
		t.Fatalf("Mat did not re-dimension: %dx%d", m2.Rows, m2.Cols)
	}
	m3 := s.Mat("m", 8, 8)
	if m3.Rows != 8 || m3.Cols != 8 || len(m3.Data) != 64 {
		t.Fatalf("Mat growth failed: %dx%d len %d", m3.Rows, m3.Cols, len(m3.Data))
	}
}
