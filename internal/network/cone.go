package network

// Stamp sets over dense signal IDs for the substitution engine
// (internal/core): its candidate walks, claims, sweep marks and the
// topological-rank searches each need a membership set they clear once per
// question, which a generation counter gives in O(1) instead of a per-call
// map or bool slice.

// ConeArena is a reusable stamp set over SigIDs. A Reset starts a new
// generation in O(1); Mark/Marked are O(1) slice probes. Generations start
// at 1, because Mark grows new slots with stamp 0; a zero arena starts its
// first generation at its first Mark, so the zero value is ready to use
// and reads empty. Not safe for concurrent use — each goroutine owns its
// own arena (the engine marks and searches fanins on the serial side
// only).
type ConeArena struct {
	stamp []uint32
	cur   uint32
}

// Reset begins a new generation: every previously marked ID reads unmarked.
func (a *ConeArena) Reset() {
	a.cur++
	if a.cur == 0 { // wrapped: invalidate stale stamps for real
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.cur = 1
	}
}

// Marked reports whether id was marked in the current generation.
func (a *ConeArena) Marked(id SigID) bool {
	return int(id) < len(a.stamp) && a.stamp[id] == a.cur
}

// Mark marks id in the current generation, reporting whether it was newly
// marked.
func (a *ConeArena) Mark(id SigID) bool {
	if a.cur == 0 { // a zero arena: start the first generation
		a.cur = 1
	}
	for int(id) >= len(a.stamp) {
		a.stamp = append(a.stamp, 0)
	}
	if a.stamp[id] == a.cur {
		return false
	}
	a.stamp[id] = a.cur
	return true
}
