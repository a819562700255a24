package freelist

import "testing"

// TestReuseIsLastInFirstOut: Get returns the most recent Put, so the
// entries a window never reaches are the ones at the bottom.
func TestReuseIsLastInFirstOut(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported an entry")
	}
	l.Put(1)
	l.Put(2)
	if x, ok := l.Get(); !ok || x != 2 {
		t.Fatalf("Get = %d, %v; want 2, true", x, ok)
	}
	if x, ok := l.Get(); !ok || x != 1 {
		t.Fatalf("Get = %d, %v; want 1, true", x, ok)
	}
}

// TestTrimKeepsWhatAWindowUses: after a burst of eight sessions closes,
// sessions that open one at a time reach only the top entry, so within
// two windows the list holds one entry, the one they reuse; a window in
// which every entry is taken drops nothing.
func TestTrimKeepsWhatAWindowUses(t *testing.T) {
	var l List[int]
	session := func() {
		l.Tick()
		x, ok := l.Get()
		if !ok {
			x = -1
		}
		l.Put(x)
	}
	for i := 0; i < 8; i++ {
		l.Tick()
	}
	for i := 0; i < 8; i++ {
		l.Put(i)
	}
	for i := 0; i < 2*Window; i++ {
		session()
	}
	if n := l.Len(); n != 1 {
		t.Fatalf("list holds %d entries after one-at-a-time sessions, want 1", n)
	}

	for i := 0; i < 8; i++ {
		l.Put(100 + i)
	}
	for w := 0; w < 2*Window; w++ {
		l.Tick()
		var got []int
		for x, ok := l.Get(); ok; x, ok = l.Get() {
			got = append(got, x)
		}
		for _, x := range got {
			l.Put(x)
		}
	}
	if n := l.Len(); n != 9 {
		t.Fatalf("list holds %d entries after windows that took all of them, want 9", n)
	}
}
