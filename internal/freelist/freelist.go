// Package freelist keeps released objects for reuse, and lets go of the
// ones the work has stopped reaching. The transformer's session
// workspaces and the KV cache's pages both live in one, shared by every
// goroutine that opens and closes sessions.
//
// A list trims itself per window of Window ticks, one tick per session
// opened: the free entries that stayed in the list through a whole
// window were surplus to every session of it, so they go to the
// collector. After a burst of concurrent sessions, a server that serves
// one at a time keeps one session's objects, not the burst's (DESIGN.md
// §25 has the measurements behind Window). A list that receives no
// ticks keeps what it holds.
package freelist

import "sync"

// Window is the number of ticks after which the entries no Get reached
// are dropped.
const Window = 4

// List is a concurrency-safe free list. The zero value is empty and
// ready to use.
type List[T any] struct {
	mu    sync.Mutex
	free  []T // guarded by mu; the top of the stack is reused first
	ticks int // guarded by mu; ticks in the current window
	low   int // guarded by mu; fewest free entries since the window began
}

// Get takes the most recently put entry; ok is false when the list is
// empty.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return x, false
	}
	x = l.free[n-1]
	var zero T
	l.free[n-1] = zero
	l.free = l.free[:n-1]
	l.low = min(l.low, n-1)
	return x, true
}

// Put adds x to the list.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// Tick counts one session opened. At the end of a window it drops the
// entries that stayed in the list through all of it.
func (l *List[T]) Tick() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ticks++; l.ticks < Window {
		return
	}
	// The bottom low entries sat idle through the window.
	n := copy(l.free, l.free[l.low:])
	clear(l.free[n:])
	l.free = l.free[:n]
	l.ticks, l.low = 0, n
}

// Len reports the number of free entries.
func (l *List[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
