package network

// Simulation signatures: every signal carries a SigWords×64-bit word of
// random-pattern simulation values, computed through the same word-parallel
// evaluation the Simulate path uses. Signatures are maintained
// incrementally: structural edits mark the rewritten signal dirty, and
// Refresh recomputes only the dirty set plus its transitive fanout.
// network.Check audits the table whenever one is attached.
//
// Storage is a flat SigID-indexed array pair (sig, known) plus a dirty
// mark/list pair — no maps, no iteration-order hazards: every walk below
// runs in creation or topological ID order.

// SigWords is the number of 64-bit pattern words per signature (SigWords*64
// random input patterns).
const SigWords = 4

// Signature is one signal's simulation values over the SigWords*64 sampled
// input patterns: bit k of word w is the signal's value under pattern
// 64*w+k.
type Signature [SigWords]uint64

// SigTable holds the per-signal signatures of one network, in flat
// SigID-indexed arrays. It is owned by the network's serial mutator: all
// recomputation happens in Refresh, so between a Refresh and the next
// mutation any number of goroutines may call Sig concurrently (it is a pure
// slice read). Refresh uses the table's walk scratch, so only the serial
// owner calls it. Clones of the network do not carry the table.
type SigTable struct {
	nw        *Network
	piPat     []Signature // fixed random patterns by PI *position*, set once
	sig       []Signature // by SigID (valid where known)
	known     []bool      // by SigID: signature present and clean
	dirtyMark []bool      // by SigID: function changed since Refresh
	dirtyList []SigID     // the marked IDs, in marking order
	allDirty  bool        // whole-network rewrite (CopyFrom): recompute all

	// Walk scratch, by SigID, reused so a Refresh costs its cone rather
	// than O(signals) of fresh arrays: cone is all false between calls;
	// val holds values only during one.
	cone []bool
	val  []uint64
}

// splitmix64 is the pattern generator: a tiny, deterministic PRNG stepped
// once per (PI, word) so the sampled patterns are identical in every run.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// EnableSigs attaches (or returns the already attached) signature table and
// computes signatures for every signal. PI patterns are a fixed
// deterministic function of the PI's position, so two runs over the same
// network sample identical patterns (and survive CopyFrom, which may reseat
// IDs but keeps the PI declaration order).
func (nw *Network) EnableSigs() *SigTable {
	if nw.sigs != nil {
		nw.sigs.Refresh()
		return nw.sigs
	}
	t := &SigTable{nw: nw, piPat: make([]Signature, len(nw.pis))}
	for i := range nw.pis {
		var s Signature
		for w := 0; w < SigWords; w++ {
			s[w] = splitmix64(uint64(i*SigWords + w + 1))
		}
		t.piPat[i] = s
	}
	t.allDirty = true
	nw.sigs = t
	t.Refresh()
	return t
}

// DisableSigs detaches the signature table; subsequent edits stop paying
// the (cheap) dirty-marking cost.
func (nw *Network) DisableSigs() { nw.sigs = nil }

// Sigs returns the attached signature table, or nil when signatures are not
// enabled. The table's Sig method is a pure read between refreshes.
func (nw *Network) Sigs() *SigTable { return nw.sigs }

// grow extends the ID-indexed slices to the current symbol-table size.
func (t *SigTable) grow() {
	n := t.nw.sym.Len()
	for len(t.sig) < n {
		t.sig = append(t.sig, Signature{})
		t.known = append(t.known, false)
	}
	for len(t.dirtyMark) < n {
		t.dirtyMark = append(t.dirtyMark, false)
	}
	for len(t.cone) < n {
		t.cone = append(t.cone, false)
		t.val = append(t.val, 0)
	}
}

// markDirty records that id's function changed. O(1); the transitive fanout
// is resolved at Refresh time against the then-current graph (any node
// whose own fanin list changed has been marked itself).
func (t *SigTable) markDirty(id SigID) {
	if t.allDirty {
		return
	}
	t.grow()
	if !t.dirtyMark[id] {
		t.dirtyMark[id] = true
		t.dirtyList = append(t.dirtyList, id)
	}
}

// markAllDirty records a whole-network rewrite.
func (t *SigTable) markAllDirty() {
	t.allDirty = true
	for _, id := range t.dirtyList {
		if int(id) < len(t.dirtyMark) {
			t.dirtyMark[id] = false
		}
	}
	t.dirtyList = t.dirtyList[:0]
}

// Sig returns the signature of a signal (PI or node). ok=false when the
// signal is unknown or its signature is stale (an edit has not been
// Refreshed yet) — callers must treat false as "no information".
func (t *SigTable) Sig(name string) (Signature, bool) {
	if t.allDirty {
		return Signature{}, false
	}
	id, ok := t.nw.sym.Lookup(name)
	if !ok || int(id) >= len(t.known) {
		return Signature{}, false
	}
	if int(id) < len(t.dirtyMark) && t.dirtyMark[id] {
		return Signature{}, false
	}
	return t.sig[id], t.known[id]
}

// Refresh brings the table up to date: it recomputes the dirty signals and
// everything in their transitive fanout, in topological order through the
// word-parallel cover evaluation Simulate uses, and drops the entries of
// removed nodes. Every edit path marks the node it adds, rewrites or
// removes dirty, so the dirty cone covers every stale or missing entry
// (network.Check's deep audit enforces that). With nothing dirty the call
// returns immediately.
//
// The cone is walked on the network's live fanout lists when they are
// enabled and ordered by a fanin-first DFS over the cone alone, so an
// incremental Refresh costs its dirty cone, never a whole-network
// FanoutIDs/TopoOrderIDs rebuild or scan.
func (t *SigTable) Refresh() {
	nw := t.nw
	if !t.allDirty && len(t.dirtyList) == 0 {
		return
	}
	t.grow()
	var ids []SigID
	if t.allDirty {
		for _, id := range nw.order {
			if nw.defs[id] != nil && !t.cone[id] {
				t.cone[id] = true
				ids = append(ids, id)
			}
		}
		// Removed nodes left no dirty mark behind: drop them here.
		for id := range t.known {
			if t.known[id] && !nw.piMark[id] && nw.defs[id] == nil {
				t.known[id] = false
			}
		}
	} else {
		for _, id := range t.dirtyList {
			if !t.cone[id] {
				t.cone[id] = true
				ids = append(ids, id)
			}
		}
		ids = nw.closeFanout(t.cone, ids, t.dirtyList)
	}
	// (Re)bind the fixed PI patterns to the current PI list by position.
	for i, pi := range nw.pis {
		if i < len(t.piPat) {
			t.sig[pi] = t.piPat[i]
			t.known[pi] = true
		}
	}
	for _, id := range nw.topoOf(t.cone, ids) {
		n := nw.defs[id]
		if n == nil {
			t.known[id] = false // removed node
			continue
		}
		fids := nw.faninIDs[id]
		var out Signature
		ok := true
		for w := 0; w < SigWords && ok; w++ {
			for _, f := range fids {
				if !t.known[f] {
					ok = false
					break
				}
				t.val[f] = t.sig[f][w]
			}
			if ok {
				out[w] = evalCoverIDs(n.Cover, fids, t.val)
			}
		}
		if ok {
			t.sig[id] = out
			t.known[id] = true
		} else {
			t.known[id] = false // undriven fanin: leave unknown
		}
	}
	for _, id := range t.dirtyList {
		t.dirtyMark[id] = false
	}
	t.dirtyList = t.dirtyList[:0]
	t.allDirty = false
}
