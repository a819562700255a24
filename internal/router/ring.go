// Package router fronts a fleet of core.Engine replicas with
// prefix-affinity request placement: requests are routed by a
// consistent hash over their prompt's leading prefix chunk — the same
// chunk key the kvcache prefix trie uses — so requests that share a
// system prompt land on the replica whose prefix KV cache is already
// warm for it. Placement is work-conserving: when the affine replica
// already holds two requests in flight and another live replica holds
// none, the request goes to the idle replica as a guest
// (core.Engine.SubmitGuest), which adopts its prefix from the affine
// replica's cache but inserts none, so each cache keeps to its own
// ring arc. When the
// affine replica is saturated the router falls back to the
// least-loaded replica, and it sheds (ErrQueueFull) only when every
// replica's admission queue is full. Replicas are isolated
// failure domains: a panicked or drained replica is ejected from the
// ring and its queued work is re-routed to the survivors.
package router

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// point is one virtual node on the ring: a hash position owned by a
// replica.
type point struct {
	hash uint64
	id   int
}

// ring is a consistent-hash ring over replica ids. Each replica owns
// vnodes virtual points (FNV-1a over "replica-<id>#<v>"), so removing
// one replica redistributes only its arc among the survivors — the
// other replicas keep their warm prefix-cache assignments, which is
// the whole reason to prefer consistent hashing over key mod N here.
//
// ring is not goroutine-safe; the Router serializes access under its
// own lock.
type ring struct {
	vnodes int
	points []point // sorted by hash
}

func newRing(vnodes int) *ring {
	return &ring{vnodes: vnodes}
}

// hashKey positions an affinity key on the ring.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // fnv's Write cannot fail
	return h.Sum64()
}

// add inserts the replica's virtual points. Adding an id twice is a
// no-op.
func (g *ring) add(id int) {
	for _, p := range g.points {
		if p.id == id {
			return
		}
	}
	for v := 0; v < g.vnodes; v++ {
		label := "replica-" + strconv.Itoa(id) + "#" + strconv.Itoa(v)
		g.points = append(g.points, point{hash: hashKey(label), id: id})
	}
	sort.Slice(g.points, func(i, j int) bool {
		if g.points[i].hash != g.points[j].hash {
			return g.points[i].hash < g.points[j].hash
		}
		// Equal 64-bit hashes are astronomically unlikely but must
		// still order deterministically across processes.
		return g.points[i].id < g.points[j].id
	})
}

// remove ejects all of the replica's virtual points.
func (g *ring) remove(id int) {
	kept := g.points[:0]
	for _, p := range g.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	g.points = kept
}

// lookup returns the replica owning the key: the first virtual point
// at or clockwise of the key's hash. ok is false on an empty ring.
func (g *ring) lookup(key string) (id int, ok bool) {
	if len(g.points) == 0 {
		return 0, false
	}
	h := hashKey(key)
	i := sort.Search(len(g.points), func(i int) bool { return g.points[i].hash >= h })
	if i == len(g.points) {
		i = 0 // wrap around
	}
	return g.points[i].id, true
}

// size reports the number of replicas with points on the ring.
func (g *ring) size() int {
	seen := map[int]bool{}
	for _, p := range g.points {
		seen[p.id] = true
	}
	return len(seen)
}
