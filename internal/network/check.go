package network

// Runtime structural checker: the dynamic half of the invariant suite
// (internal/analysis is the static half). Check audits everything the
// engine's correctness argument leans on — acyclicity, name uniqueness,
// cover canonicity, order/defs agreement, symbol-table/fanin-ID lockstep,
// signature-table consistency — and returns the first violation. blif.Parse
// runs it on every parsed network, the fuzz harness runs it on every corpus
// input, and the engine runs it after every committed substitution when
// Options.Audit is set.

import (
	"fmt"
	"strings"
)

// Check validates the network's structural invariants:
//
//   - primary input names are unique and never doubly driven by a node
//   - primary outputs are unique and driven by a PI or node
//   - the symbol table and the ID-indexed slices agree: defs/piMark/faninIDs
//     span the whole ID space, PI/PO name slices mirror their ID slices
//   - the creation order lists no ID twice, inOrder marks exactly the IDs
//     it lists, and every live node is among them with a Name matching its
//     interned name (so Nodes() is a faithful enumeration)
//   - fanins are distinct and driven, and each node's fanin-ID slice is the
//     element-wise interning of its Fanins (the name-face/ID-core lockstep
//     every ID-path consumer leans on)
//   - covers are canonical: the cover's variable space matches the fanin
//     list and no cube is empty or sized to a different space
//   - the node graph is acyclic (explicit DFS — a cycle is reported as an
//     error with its path, never a panic)
//   - the live fanout lists, when enabled, hold exactly the fanouts a fresh
//     FanoutIDs finds (see checkFanouts)
//   - the signature table, when enabled, is consistent with the structure
//     (see checkSigs)
//
// It returns the first violation found, or nil.
func (nw *Network) Check() error {
	if len(nw.defs) != nw.sym.Len() || len(nw.piMark) != nw.sym.Len() || len(nw.poMark) != nw.sym.Len() || len(nw.faninIDs) != nw.sym.Len() || len(nw.inOrder) != nw.sym.Len() {
		return fmt.Errorf("network %q: ID slices span %d/%d/%d/%d/%d signals, symbol table %d",
			nw.Name, len(nw.defs), len(nw.piMark), len(nw.poMark), len(nw.faninIDs), len(nw.inOrder), nw.sym.Len())
	}
	if len(nw.piNames) != len(nw.pis) {
		return fmt.Errorf("network %q: %d PI names for %d PI ids", nw.Name, len(nw.piNames), len(nw.pis))
	}
	if len(nw.poNames) != len(nw.posIDs) {
		return fmt.Errorf("network %q: %d PO names for %d PO ids", nw.Name, len(nw.poNames), len(nw.posIDs))
	}

	seenPI := make([]bool, nw.sym.Len())
	for i, id := range nw.pis {
		pi := nw.piNames[i]
		if got, ok := nw.sym.Lookup(pi); !ok || got != id {
			return fmt.Errorf("network %q: primary input %q not interned at its ID", nw.Name, pi)
		}
		if !nw.piMark[id] {
			return fmt.Errorf("network %q: primary input %q not marked as PI", nw.Name, pi)
		}
		if seenPI[id] {
			return fmt.Errorf("network %q: duplicate primary input %q", nw.Name, pi)
		}
		seenPI[id] = true
		if nw.defs[id] != nil {
			return fmt.Errorf("network %q: signal %q is both a primary input and a node", nw.Name, pi)
		}
	}
	for id, marked := range nw.piMark {
		if marked && !seenPI[id] {
			return fmt.Errorf("network %q: signal %q marked as PI but absent from the PI list", nw.Name, nw.sym.Name(SigID(id)))
		}
	}

	seenPO := make([]bool, nw.sym.Len())
	for i, id := range nw.posIDs {
		po := nw.poNames[i]
		if got, ok := nw.sym.Lookup(po); !ok || got != id {
			return fmt.Errorf("network %q: primary output %q not interned at its ID", nw.Name, po)
		}
		if seenPO[id] {
			return fmt.Errorf("network %q: duplicate primary output %q", nw.Name, po)
		}
		seenPO[id] = true
		if !nw.piMark[id] && nw.defs[id] == nil {
			return fmt.Errorf("network %q: undriven primary output %q", nw.Name, po)
		}
	}
	for id, marked := range nw.poMark {
		if marked != seenPO[id] {
			return fmt.Errorf("network %q: PO mark of %q out of sync with the PO list", nw.Name, nw.sym.Name(SigID(id)))
		}
	}

	// Nodes() walks nw.order, so a node that is missing from the order (or
	// listed twice after a remove/re-add) silently skews every enumeration.
	listed := make([]bool, nw.sym.Len())
	for _, id := range nw.order {
		if int(id) >= nw.sym.Len() {
			return fmt.Errorf("network %q: creation order holds out-of-range id %d", nw.Name, id)
		}
		if listed[id] {
			return fmt.Errorf("network %q: %q appears twice in the creation order", nw.Name, nw.sym.Name(id))
		}
		listed[id] = true
	}
	for id, n := range nw.defs {
		name := nw.sym.Name(SigID(id))
		if n != nil && n.Name != name {
			return fmt.Errorf("network %q: node keyed %q carries name %q", nw.Name, name, n.Name)
		}
		if n != nil && !listed[id] {
			return fmt.Errorf("network %q: node %q is missing from the creation order", nw.Name, name)
		}
		if nw.inOrder[id] != listed[id] {
			return fmt.Errorf("network %q: inOrder mark of %q out of sync with the creation order", nw.Name, name)
		}
	}

	for _, n := range nw.Nodes() {
		if err := nw.checkNode(n); err != nil {
			return err
		}
	}

	if err := nw.checkAcyclic(); err != nil {
		return err
	}
	if err := nw.checkFanouts(); err != nil {
		return err
	}
	if err := nw.checkSigs(); err != nil {
		return err
	}
	return nw.checkCones()
}

// checkNode audits one node's fanin list, fanin-ID lockstep, and cover
// canonicity.
func (nw *Network) checkNode(n *Node) error {
	if n.Cover.NumVars() != len(n.Fanins) {
		return fmt.Errorf("network %q: node %q: cover space %d != %d fanins", nw.Name, n.Name, n.Cover.NumVars(), len(n.Fanins))
	}
	id, _ := nw.sym.Lookup(n.Name)
	fids := nw.faninIDs[id]
	if len(fids) != len(n.Fanins) {
		return fmt.Errorf("network %q: node %q: %d fanin ids for %d fanins", nw.Name, n.Name, len(fids), len(n.Fanins))
	}
	for i, f := range n.Fanins {
		if fid, ok := nw.sym.Lookup(f); !ok || fid != fids[i] {
			return fmt.Errorf("network %q: node %q: fanin %q id mismatch (slot %d holds %d)", nw.Name, n.Name, f, i, fids[i])
		}
		// Repeated-fanin detection by ID scan over the already-validated
		// prefix: fanin lists are tiny, and fids[i] is proven equal to f's
		// interned ID just above.
		for j := 0; j < i; j++ {
			if fids[j] == fids[i] {
				return fmt.Errorf("network %q: node %q: repeated fanin %q", nw.Name, n.Name, f)
			}
		}
		if !nw.piMark[fids[i]] && nw.defs[fids[i]] == nil {
			return fmt.Errorf("network %q: node %q: undriven fanin %q", nw.Name, n.Name, f)
		}
	}
	for i, c := range n.Cover.Cubes {
		if c.NumVars() != n.Cover.NumVars() {
			return fmt.Errorf("network %q: node %q: cube %d spans %d vars, cover spans %d", nw.Name, n.Name, i, c.NumVars(), n.Cover.NumVars())
		}
		if c.IsEmpty() {
			return fmt.Errorf("network %q: node %q: cube %d is empty (non-canonical cover)", nw.Name, n.Name, i)
		}
	}
	return nil
}

// checkAcyclic verifies the node graph has no combinational cycle using an
// explicit three-color DFS. Unlike TopoOrder it never panics: a cycle comes
// back as an error naming the path, so callers (the parser, the fuzzer, the
// audit hook) can report it. The DFS iterates nodes in sorted-name order so
// the reported cycle is deterministic.
func (nw *Network) checkAcyclic() error {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]uint8, nw.sym.Len())
	var path []string
	var visit func(name string) error
	visit = func(name string) error {
		n := nw.Node(name)
		if n == nil {
			return nil // PI or dangling reference; checkNode reports the latter
		}
		id, _ := nw.sym.Lookup(name) // driven ⇒ interned
		switch state[id] {
		case visiting:
			// Trim the path to the cycle proper for the message.
			start := 0
			for i, p := range path {
				if p == name {
					start = i
					break
				}
			}
			return fmt.Errorf("network %q: combinational cycle: %s -> %s", nw.Name, strings.Join(path[start:], " -> "), name)
		case done:
			return nil
		}
		state[id] = visiting
		path = append(path, name)
		for _, f := range n.Fanins {
			if err := visit(f); err != nil {
				return err
			}
		}
		path = path[:len(path)-1]
		state[id] = done
		return nil
	}
	for _, name := range nw.SortedNodeNames() {
		if err := visit(name); err != nil {
			return err
		}
	}
	return nil
}

// checkSigs audits the signature table against the structure. Always: every
// primary input must carry a pattern signature. When the table is clean (no
// pending dirty marks) the deep audit also recomputes every node's
// signature from its fanins' stored signatures and compares — a mismatch
// means an edit path forgot to mark its target dirty, exactly the class of
// bug that silently corrupts the divisor prefilter. While dirty marks are
// pending, stored signatures are stale by design (callers Refresh before
// reading), so only the shallow audit applies.
func (nw *Network) checkSigs() error {
	t := nw.sigs
	if t == nil {
		return nil
	}
	for i := range nw.pis {
		if i >= len(t.piPat) {
			return fmt.Errorf("network %q: sig table missing primary input %q", nw.Name, nw.piNames[i])
		}
	}
	if t.allDirty || len(t.dirtyList) > 0 {
		return nil
	}
	// Clean table: stored signatures must cover exactly the computable
	// nodes and agree with a fresh evaluation over their fanins.
	for id := range t.known {
		if t.known[id] && !nw.piMark[id] && nw.defs[id] == nil {
			return fmt.Errorf("network %q: sig table holds removed node %q", nw.Name, nw.sym.Name(SigID(id)))
		}
	}
	val := make([]uint64, nw.sym.Len())
	for _, id := range nw.TopoOrderIDs() {
		n := nw.defs[id]
		fids := nw.faninIDs[id]
		var want Signature
		computable := true
		for w := 0; w < SigWords && computable; w++ {
			for _, f := range fids {
				if int(f) >= len(t.known) || !t.known[f] {
					computable = false
					break
				}
				val[f] = t.sig[f][w]
			}
			if computable {
				want[w] = evalCoverIDs(n.Cover, fids, val)
			}
		}
		ok := int(id) < len(t.known) && t.known[id]
		if !computable {
			if ok {
				return fmt.Errorf("network %q: sig table holds uncomputable node %q", nw.Name, n.Name)
			}
			continue
		}
		if !ok {
			return fmt.Errorf("network %q: sig table missing node %q while clean", nw.Name, n.Name)
		}
		if t.sig[id] != want {
			return fmt.Errorf("network %q: stale signature for %q: stored %x, recomputed %x — an edit path missed markDirty", nw.Name, n.Name, t.sig[id], want)
		}
	}
	return nil
}

// checkCones audits the cone-hash table against the structure, mirroring
// checkSigs: when the table is clean, every live node must carry a stored
// hash equal to a fresh recomputation over its fanins' stored hashes, no
// removed node may linger, and the whole-network digest must refold to the
// stored value. A mismatch means an edit path forgot to mark its target
// dirty, so two different cones could share a hash. While dirty marks are
// pending, stored hashes are stale by design.
func (nw *Network) checkCones() error {
	t := nw.cones
	if t == nil {
		return nil
	}
	if t.allDirty || len(t.dirtyList) > 0 {
		return nil
	}
	for id := range t.known {
		if t.known[id] && !nw.piMark[id] && nw.defs[id] == nil {
			return fmt.Errorf("network %q: cone table holds removed node %q", nw.Name, nw.sym.Name(SigID(id)))
		}
	}
	for _, id := range nw.TopoOrderIDs() {
		if int(id) >= len(t.known) || !t.known[id] {
			return fmt.Errorf("network %q: cone table missing node %q while clean", nw.Name, nw.defs[id].Name)
		}
		if want := t.compute(id, nw.defs[id]); t.h[id] != want {
			return fmt.Errorf("network %q: stale cone hash for %q: stored %x, recomputed %x — an edit path missed markDirty", nw.Name, nw.defs[id].Name, t.h[id], want)
		}
	}
	net := t.net
	t.refoldNet()
	if t.net != net {
		return fmt.Errorf("network %q: stale whole-network cone digest: stored %x, refolded %x", nw.Name, net, t.net)
	}
	return nil
}
