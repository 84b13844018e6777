package network

// Structural cone hashes: every signal carries a 128-bit hash of its
// transitive fanin cone — the signal names, fanin lists, and exact cover
// cubes of everything the signal's function is built from. Two network
// states in which a signal's hash agrees have byte-identical cones, so any
// computation that reads only the cone (a division trial with region-local
// implications, a window extraction) must produce the same result in both.
// A committed rewrite changes the hashes of exactly the rewritten signals
// and their transitive fanout. The substitution engine does not read the
// table: the per-commit refresh costs more than any trial cache keyed on it
// saved (DESIGN.md "Trial memoization: deleted").
//
// Hashes are maintained incrementally, mirroring SigTable: structural edits
// mark the rewritten signal dirty, and Refresh recomputes the dirty closure
// (dirty signals plus transitive fanout) in topological order. Storage is a
// flat SigID-indexed array; the hash itself deliberately keeps absorbing
// NAMES, not IDs — IDs are creation-order dependent, and the cone hash must
// stay invariant under node creation order (see below) and stable across
// clones whose symbol tables interned names in different sequences.
//
// Node creation order is deliberately NOT hashed: two networks built from
// the same nodes in different AddNode orders carry identical cone hashes
// (FuzzConeHashOrderInvariance locks this). The whole-network digest
// NetHash is the one exception — it folds the creation-order slice in,
// because netlist gate numbering follows creation order and the
// learning-capped ExtendedGDC implication passes are sensitive to it, so a
// result that may depend on anything outside a cone must be keyed on
// NetHash and therefore dies with any commit.

// ConeHash is a 128-bit structural hash of a signal's transitive fanin
// cone.
type ConeHash [2]uint64

// coneDigest accumulates words into a 128-bit hash: an FNV-1a lane and an
// independent splitmix-fed lane. Both lanes are deterministic functions of
// the absorbed word sequence, so digests are stable across runs and
// processes.
type coneDigest struct{ a, b uint64 }

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newConeDigest(tag uint64) coneDigest {
	d := coneDigest{a: fnvOffset64, b: 0x9E3779B97F4A7C15}
	d.word(tag)
	return d
}

func (d *coneDigest) word(w uint64) {
	x := w
	for i := 0; i < 8; i++ {
		d.a = (d.a ^ (x & 0xFF)) * fnvPrime64
		x >>= 8
	}
	d.b = splitmix64(d.b + w)
}

func (d *coneDigest) str(s string) {
	d.word(uint64(len(s)))
	var w uint64
	k := 0
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * k)
		k++
		if k == 8 {
			d.word(w)
			w, k = 0, 0
		}
	}
	if k > 0 {
		d.word(w)
	}
}

func (d *coneDigest) hash(h ConeHash) {
	d.word(h[0])
	d.word(h[1])
}

func (d *coneDigest) sum() ConeHash {
	return ConeHash{splitmix64(d.a), splitmix64(d.b ^ d.a)}
}

// Digest tags keep the hash domains of the signal kinds disjoint.
const (
	tagPI uint64 = iota + 1
	tagUndriven
	tagNode
	tagNet
)

// ConeTable holds the per-signal cone hashes of one network in a flat
// SigID-indexed array. Ownership mirrors SigTable: all recomputation
// happens in the serial Refresh, so between a Refresh and the next mutation
// any number of goroutines may call Hash/NetHash concurrently (pure slice
// reads). Clones of the network do not carry the table.
type ConeTable struct {
	nw        *Network
	h         []ConeHash // node cone hashes by SigID (valid where known)
	known     []bool     // by SigID: hash present and clean
	dirtyMark []bool     // by SigID: function changed since Refresh
	dirtyList []SigID    // the marked IDs, in marking order
	allDirty  bool       // whole-network rewrite (CopyFrom): recompute all
	net       ConeHash   // order-sensitive whole-network digest
}

// EnableCones attaches (or returns the already attached, refreshed) cone
// table and computes hashes for every signal.
func (nw *Network) EnableCones() *ConeTable {
	if nw.cones != nil {
		nw.cones.Refresh()
		return nw.cones
	}
	t := &ConeTable{nw: nw, allDirty: true}
	nw.cones = t
	t.Refresh()
	return t
}

// DisableCones detaches the cone table; subsequent edits stop paying the
// (cheap) dirty-marking cost.
func (nw *Network) DisableCones() { nw.cones = nil }

// grow extends the ID-indexed slices to the current symbol-table size.
func (t *ConeTable) grow() {
	n := t.nw.sym.Len()
	for len(t.h) < n {
		t.h = append(t.h, ConeHash{})
		t.known = append(t.known, false)
	}
	for len(t.dirtyMark) < n {
		t.dirtyMark = append(t.dirtyMark, false)
	}
}

// markDirty records that id's function changed. O(1); the transitive
// fanout is resolved at Refresh time against the then-current graph.
func (t *ConeTable) markDirty(id SigID) {
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
func (t *ConeTable) markAllDirty() {
	t.allDirty = true
	for _, id := range t.dirtyList {
		if int(id) < len(t.dirtyMark) {
			t.dirtyMark[id] = false
		}
	}
	t.dirtyList = t.dirtyList[:0]
}

// piHash is the cone hash of a primary input — a pure function of the
// name, so it needs no storage or invalidation.
func piHash(name string) ConeHash {
	d := newConeDigest(tagPI)
	d.str(name)
	return d.sum()
}

// undrivenHash covers signals that are neither PIs nor nodes (a fanin whose
// driver was removed); they still contribute structure to cones above them.
func undrivenHash(name string) ConeHash {
	d := newConeDigest(tagUndriven)
	d.str(name)
	return d.sum()
}

// Hash returns the cone hash of a signal. ok=false while any edit is
// pending (callers must Refresh first — unlike SigTable.Sig, a single dirty
// signal poisons the whole table, because a stale transitive-fanout entry
// is indistinguishable from a clean one).
func (t *ConeTable) Hash(name string) (ConeHash, bool) {
	if t.allDirty || len(t.dirtyList) > 0 {
		return ConeHash{}, false
	}
	id, ok := t.nw.sym.Lookup(name)
	if !ok {
		return ConeHash{}, false
	}
	if int(id) < len(t.known) && t.known[id] {
		return t.h[id], true
	}
	if t.nw.piMark[id] {
		return piHash(name), true
	}
	return ConeHash{}, false
}

// NetHash returns the order-sensitive whole-network digest: every node's
// cone hash folded in creation order, plus the PI and PO lists. Any
// committed rewrite changes it. ok=false while an edit is pending.
func (t *ConeTable) NetHash() (ConeHash, bool) {
	if t.allDirty || len(t.dirtyList) > 0 {
		return ConeHash{}, false
	}
	return t.net, true
}

// lookup reads a hash during recomputation, ignoring dirty marks (the topo
// walk guarantees fanins are recomputed before their fanouts).
func (t *ConeTable) lookup(id SigID) ConeHash {
	if t.known[id] {
		return t.h[id]
	}
	if t.nw.piMark[id] {
		return piHash(t.nw.sym.Name(id))
	}
	return undrivenHash(t.nw.sym.Name(id))
}

// compute derives one node's cone hash from its own structure and its
// fanins' (already clean) hashes: name, fanin list with per-fanin cone
// hashes, and the exact cover cubes in cover order.
func (t *ConeTable) compute(id SigID, n *Node) ConeHash {
	d := newConeDigest(tagNode)
	d.str(n.Name)
	d.word(uint64(len(n.Fanins)))
	fids := t.nw.faninIDs[id]
	for i, f := range n.Fanins {
		d.str(f)
		d.hash(t.lookup(fids[i]))
	}
	d.word(uint64(n.Cover.NumVars()))
	d.word(uint64(n.Cover.NumCubes()))
	for _, c := range n.Cover.Cubes {
		lits := c.Lits()
		d.word(uint64(len(lits)))
		for _, v := range lits {
			d.word(uint64(v)<<2 | uint64(c.Get(v)))
		}
	}
	return d.sum()
}

// Refresh brings the table up to date: it recomputes the dirty signals,
// everything in their transitive fanout, and any node the table has never
// seen, in topological order; entries for removed nodes are dropped, and
// the whole-network digest is refolded. It returns the number of signals
// whose stored hash was invalidated (changed or dropped) — the count of
// cone keys a committed rewrite killed; signals hashed for the first time
// are not counted.
func (t *ConeTable) Refresh() int {
	nw := t.nw
	if !t.allDirty && len(t.dirtyList) == 0 {
		return 0
	}
	t.grow()
	need := make([]bool, nw.sym.Len())
	if t.allDirty {
		for _, id := range nw.order {
			if nw.defs[id] != nil {
				need[id] = true
			}
		}
	} else {
		fanouts := nw.FanoutIDs()
		stack := append([]SigID(nil), t.dirtyList...)
		for _, id := range t.dirtyList {
			need[id] = true
		}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, fo := range fanouts[s] {
				if !need[fo] {
					need[fo] = true
					stack = append(stack, fo)
				}
			}
		}
		for _, id := range nw.order {
			if nw.defs[id] != nil && !t.known[id] {
				need[id] = true
			}
		}
	}
	invalidated := 0
	for _, id := range nw.TopoOrderIDs() {
		if !need[id] {
			continue
		}
		h := t.compute(id, nw.defs[id])
		if t.known[id] && t.h[id] != h {
			invalidated++
		}
		t.h[id] = h
		t.known[id] = true
	}
	// Drop hashes of removed nodes.
	for id := range t.known {
		if t.known[id] && !nw.piMark[id] && nw.defs[id] == nil {
			t.known[id] = false
			invalidated++
		}
	}
	for _, id := range t.dirtyList {
		t.dirtyMark[id] = false
	}
	t.dirtyList = t.dirtyList[:0]
	t.allDirty = false
	t.refoldNet()
	return invalidated
}

// refoldNet recomputes the whole-network digest: creation-order node walk
// (names and cone hashes), then PI and PO lists in declaration order.
func (t *ConeTable) refoldNet() {
	nw := t.nw
	d := newConeDigest(tagNet)
	for _, id := range nw.order {
		if nw.defs[id] == nil {
			continue
		}
		d.str(nw.sym.Name(id))
		d.hash(t.h[id])
	}
	d.word(uint64(len(nw.pis)))
	for _, pi := range nw.piNames {
		d.str(pi)
	}
	d.word(uint64(len(nw.posIDs)))
	for _, po := range nw.poNames {
		d.str(po)
	}
	t.net = d.sum()
}
