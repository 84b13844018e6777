package network

// Simulation signatures: every signal carries a SigWords×64-bit word of
// random-pattern simulation values, computed through the same word-parallel
// evaluation the Simulate path uses. A table is a snapshot of one version
// of its network (see Network.Version): any edit makes every entry read as
// unknown until Refresh recomputes the whole table. network.Check audits a
// current table against a fresh computation.
//
// Storage is a flat SigID-indexed array pair (sig, known) — no maps, no
// iteration-order hazards: the computation runs in topological ID order.

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
// slice read). Clones of the network do not carry the table.
type SigTable struct {
	nw      *Network
	version uint64      // the network's Version when the table was computed
	sig     []Signature // by SigID (valid where known)
	known   []bool      // by SigID: signature computed
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

// piPattern is the fixed random pattern of the PI at position i. It is a
// deterministic function of the position, so two runs over the same
// network sample identical patterns (and survive CopyFrom, which may reseat
// IDs but keeps the PI declaration order).
func piPattern(i int) Signature {
	var s Signature
	for w := 0; w < SigWords; w++ {
		s[w] = splitmix64(uint64(i*SigWords + w + 1))
	}
	return s
}

// EnableSigs attaches (or returns the already attached) signature table and
// computes signatures for every signal.
func (nw *Network) EnableSigs() *SigTable {
	if nw.sigs == nil {
		nw.sigs = &SigTable{nw: nw}
	}
	nw.sigs.Refresh()
	return nw.sigs
}

// DisableSigs detaches the signature table.
func (nw *Network) DisableSigs() { nw.sigs = nil }

// Sigs returns the attached signature table, or nil when signatures are not
// enabled. The table's Sig method is a pure read between refreshes.
func (nw *Network) Sigs() *SigTable { return nw.sigs }

// Sig returns the signature of a signal (PI or node). ok=false when the
// signal is unknown or the table is stale (the network has been edited
// since the last Refresh) — callers must treat false as "no information".
func (t *SigTable) Sig(name string) (Signature, bool) {
	id, ok := t.nw.sym.Lookup(name)
	if !ok || t.version != t.nw.version || int(id) >= len(t.known) {
		return Signature{}, false
	}
	return t.sig[id], t.known[id]
}

// Refresh recomputes the whole table at the network's current version: the
// fixed PI patterns, then every node in topological order through the
// word-parallel cover evaluation Simulate uses. A node with an undriven
// fanin stays unknown.
func (t *SigTable) Refresh() {
	nw := t.nw
	n := nw.sym.Len()
	t.sig = make([]Signature, n)
	t.known = make([]bool, n)
	for i, pi := range nw.pis {
		t.sig[pi], t.known[pi] = piPattern(i), true
	}
	val := make([]uint64, n)
next:
	for _, id := range nw.TopoOrderIDs() {
		fids := nw.faninIDs[id]
		for _, f := range fids {
			if !t.known[f] {
				continue next
			}
		}
		for w := 0; w < SigWords; w++ {
			for _, f := range fids {
				val[f] = t.sig[f][w]
			}
			t.sig[id][w] = evalCoverIDs(nw.defs[id].Cover, fids, val)
		}
		t.known[id] = true
	}
	t.version = nw.version
}
