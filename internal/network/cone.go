package network

// Flat fanout-cone extraction for the substitution engine (internal/core):
// candidate enumeration excludes a dividend's transitive fanout, the batch
// scheduler claims it as part of a member's footprint, and the sweep marks
// a commit's fanout cone dirty. Each needs the cone as a flat dense-ID list,
// deduplicated against a reusable stamp arena instead of a per-call map or
// bool slice. Only node-driven signals are appended, but every visited
// signal is stamped, so the arena doubles as the cone's membership test and
// one generation can union several walks.

// ConeArena is a reusable stamp set over SigIDs. A Reset starts a new
// generation in O(1); Mark/Marked are O(1) slice probes. The zero value is
// ready to use. Not safe for concurrent use — each goroutine owns its own
// arena (the batch scheduler only walks cones on the serial side).
type ConeArena struct {
	stamp []uint32
	cur   uint32
	stack []SigID
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
	for int(id) >= len(a.stamp) {
		a.stamp = append(a.stamp, 0)
	}
	if a.stamp[id] == a.cur {
		return false
	}
	a.stamp[id] = a.cur
	return true
}

// AppendFanoutConeIDs appends the node-driven signals of id's transitive
// fanout cone — id itself excluded — to dst, walking the network's live
// fanout lists (EnableFanouts; without them it walks a fresh FanoutIDs
// snapshot). Signals already marked in the arena's current generation are
// skipped, so successive calls on one generation build a union. limit > 0
// caps the size of dst: ok=false reports the walk gave up because dst grew
// past the cap, with dst holding the partial cone.
func (nw *Network) AppendFanoutConeIDs(id SigID, a *ConeArena, dst []SigID, limit int) ([]SigID, bool) {
	fanouts := nw.fanoutIndex()
	if int(id) >= len(fanouts) {
		return dst, true
	}
	a.stack = append(a.stack[:0], fanouts[id]...)
	for len(a.stack) > 0 {
		s := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		if !a.Mark(s) {
			continue
		}
		if nw.defs[s] == nil {
			continue
		}
		dst = append(dst, s)
		if limit > 0 && len(dst) > limit {
			return dst, false
		}
		if int(s) < len(fanouts) {
			a.stack = append(a.stack, fanouts[s]...)
		}
	}
	return dst, true
}
