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
// Like SigTable, a table is a snapshot of one version of its network (see
// Network.Version): any edit makes every hash read as unknown until Refresh
// recomputes the whole table in topological order. Storage is a flat
// SigID-indexed array; the hash itself deliberately keeps absorbing
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
	nw      *Network
	version uint64     // the network's Version when the table was computed
	h       []ConeHash // node cone hashes by SigID (valid where known)
	known   []bool     // by SigID: hash computed
	net     ConeHash   // order-sensitive whole-network digest
}

// EnableCones attaches (or returns the already attached) cone table and
// computes hashes for every signal.
func (nw *Network) EnableCones() *ConeTable {
	if nw.cones == nil {
		nw.cones = &ConeTable{nw: nw}
	}
	nw.cones.Refresh()
	return nw.cones
}

// DisableCones detaches the cone table.
func (nw *Network) DisableCones() { nw.cones = nil }

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

// Hash returns the cone hash of a signal. ok=false when the signal is
// unknown or the table is stale (the network has been edited since the
// last Refresh).
func (t *ConeTable) Hash(name string) (ConeHash, bool) {
	id, ok := t.nw.sym.Lookup(name)
	if !ok || t.version != t.nw.version {
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
// committed rewrite changes it. ok=false when the table is stale.
func (t *ConeTable) NetHash() (ConeHash, bool) {
	return t.net, t.version == t.nw.version
}

// lookup reads a hash during recomputation (the topo walk guarantees fanins
// are computed before their fanouts).
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
// fanins' (already computed) hashes: name, fanin list with per-fanin cone
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

// Refresh recomputes the whole table at the network's current version:
// every node's cone hash in topological order, then the whole-network
// digest.
func (t *ConeTable) Refresh() {
	nw := t.nw
	t.h = make([]ConeHash, nw.sym.Len())
	t.known = make([]bool, nw.sym.Len())
	for _, id := range nw.TopoOrderIDs() {
		t.h[id], t.known[id] = t.compute(id, nw.defs[id]), true
	}
	t.refoldNet()
	t.version = nw.version
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
