package network

import (
	"repro/internal/cube"
)

// Compose substitutes the function of node inner into node outer, removing
// inner from outer's fanins. The composition is Boolean-exact: positive
// literals of inner are replaced by inner's cover, negative literals by its
// complement. Returns false if outer does not reference inner.
func (nw *Network) Compose(outer, inner string) bool {
	oid, ook := nw.sym.Lookup(outer)
	iid, iok := nw.sym.Lookup(inner)
	if !ook || !iok {
		return false
	}
	o, in := nw.defs[oid], nw.defs[iid]
	if o == nil || in == nil {
		return false
	}
	vi := o.FaninIndex(inner)
	if vi < 0 {
		return false
	}
	// Build the merged fanin list: outer's fanins minus inner, plus inner's
	// fanins not already present.
	newFanins := make([]string, 0, len(o.Fanins)+len(in.Fanins))
	for _, f := range o.Fanins {
		if f != inner {
			newFanins = append(newFanins, f)
		}
	}
	for _, f := range in.Fanins {
		if sigIndex(newFanins, f) < 0 {
			newFanins = append(newFanins, f)
		}
	}
	n := len(newFanins)

	// Remap inner's cover into the merged space.
	innerCov := remap(in.Cover, in.Fanins, newFanins)
	innerNeg := innerCov.Complement()

	out := cube.NewCover(n)
	for _, c := range o.Cover.Cubes {
		// Translate c (excluding the inner literal) into the merged space.
		base := cube.New(n)
		ph := c.Get(vi)
		for _, v := range c.Lits() {
			if v == vi {
				continue
			}
			base.Set(sigIndex(newFanins, o.Fanins[v]), c.Get(v))
		}
		switch ph {
		case cube.Pos, cube.Neg:
			sub := innerCov
			if ph == cube.Neg {
				sub = innerNeg
			}
			for _, sc := range sub.Cubes {
				p := base.And(sc)
				if !p.IsEmpty() {
					out.Cubes = append(out.Cubes, p)
				}
			}
		default:
			out.Cubes = append(out.Cubes, base)
		}
	}
	nw.setNodeFunc(oid, o, newFanins, out.SCC())
	nw.NormalizeNode(outer)
	if nw.sigs != nil {
		nw.sigs.markDirty(oid)
	}
	if nw.cones != nil {
		nw.cones.markDirty(oid)
	}
	return true
}

// sigIndex returns s's position in the signal list, or -1. Fanin lists are
// a handful of signals, so the linear scan replaces the name→index maps
// these rewrites used to allocate per call on the trial/commit path.
func sigIndex(list []string, s string) int {
	for i, x := range list {
		if x == s {
			return i
		}
	}
	return -1
}

// remap translates a cover from a fanin-name list into the destination
// variable space named by dst (variable i of the result is dst[i]).
func remap(f cube.Cover, fanins []string, dst []string) cube.Cover {
	n := len(dst)
	out := cube.NewCover(n)
	for _, c := range f.Cubes {
		k := cube.New(n)
		for _, v := range c.Lits() {
			k.Set(sigIndex(dst, fanins[v]), c.Get(v))
		}
		out.Cubes = append(out.Cubes, k)
	}
	return out
}

// RemapCover is the exported form of remap for other packages: it moves f
// from the variable space named by fanins into the space named by dst.
func RemapCover(f cube.Cover, fanins []string, dst []string) cube.Cover {
	for _, s := range fanins {
		if sigIndex(dst, s) < 0 {
			panic("network: RemapCover destination missing signal " + s)
		}
	}
	return remap(f, fanins, dst)
}

// Sweep removes nodes not reachable from any primary output, propagates
// constant nodes, and collapses single-literal (buffer/inverter) nodes into
// their fanouts. Repeats to a fixed point; returns the number of nodes
// removed.
func (nw *Network) Sweep() int {
	defer nw.bulkFanouts()()
	removed := 0
	for {
		changed := false

		// 1. Constant and buffer/inverter propagation.
		for _, n := range nw.Nodes() {
			if isConstCover(n.Cover) || isSingleLiteral(n.Cover) {
				if nw.propagateSimple(n) {
					changed = true
				}
			}
		}

		// 2. Dead-node elimination.
		live := make([]bool, nw.sym.Len())
		var mark func(SigID)
		mark = func(id SigID) {
			if live[id] || nw.piMark[id] {
				return
			}
			live[id] = true
			for _, f := range nw.faninIDs[id] {
				mark(f)
			}
		}
		for _, po := range nw.posIDs {
			mark(po)
		}
		for _, id := range nw.order {
			if nw.defs[id] != nil && !live[id] {
				nw.RemoveNode(nw.sym.Name(id))
				removed++
				changed = true
			}
		}
		if !changed {
			return removed
		}
	}
}

func isConstCover(f cube.Cover) bool {
	return f.IsZero() || (f.NumCubes() == 1 && f.Cubes[0].IsUniverse())
}

func isSingleLiteral(f cube.Cover) bool {
	return f.NumCubes() == 1 && f.Cubes[0].NumLits() == 1
}

// propagateSimple folds a constant or positive-buffer node into its fanouts.
// Buffer nodes that drive a PO are kept (they name the output). Returns
// whether anything changed.
func (nw *Network) propagateSimple(n *Node) bool {
	changed := false
	for _, fo := range nw.fanoutNames(n.Name) {
		if nw.Compose(fo, n.Name) {
			changed = true
		}
	}
	return changed
}

// bulkFanouts attaches live fanout lists for the duration of a bulk edit
// (Sweep, Eliminate), which reads a node's fanouts once per node it folds
// or scores, and returns the call that restores the previous state. Every
// fold composes into each fanout independently, so the lists' edit-history
// order cannot change the result.
func (nw *Network) bulkFanouts() func() {
	if nw.fanouts != nil {
		return func() {}
	}
	nw.EnableFanouts()
	return nw.DisableFanouts
}

// fanoutNames returns the names of the nodes reading signal name, copied
// out of the fanout lists so the caller may edit those nodes while it
// iterates.
func (nw *Network) fanoutNames(name string) []string {
	id, ok := nw.sym.Lookup(name)
	if !ok {
		return nil
	}
	ids := nw.FanoutsOf(id)
	out := make([]string, len(ids))
	for i, fo := range ids {
		out[i] = nw.sym.Name(fo)
	}
	return out
}

// ReplaceFaninSignal rewires node name to read signal `new` (in the given
// phase relative to `old`: invert=false means new carries old's function,
// invert=true means new carries its complement) wherever it read `old`.
// When `new` is already a fanin the columns are merged cube-wise. Returns
// false when the rewiring would create a combinational cycle or the node
// does not use old.
func (nw *Network) ReplaceFaninSignal(name, old, new string, invert bool) bool {
	id, ok := nw.sym.Lookup(name)
	if !ok {
		return false
	}
	n := nw.defs[id]
	if n == nil {
		return false
	}
	oldIdx := n.FaninIndex(old)
	if oldIdx < 0 {
		return false
	}
	if new != name && nw.DependsOn(new, name) {
		return false
	}
	if new == name {
		return false
	}
	newFanins := make([]string, 0, len(n.Fanins))
	for _, f := range n.Fanins {
		if f == old {
			f = new
		}
		dup := false
		for _, x := range newFanins {
			if x == f {
				dup = true
				break
			}
		}
		if !dup {
			newFanins = append(newFanins, f)
		}
	}
	out := cube.NewCover(len(newFanins))
	for _, c := range n.Cover.Cubes {
		k := cube.New(len(newFanins))
		empty := false
		for _, v := range c.Lits() {
			sig := n.Fanins[v]
			ph := c.Get(v)
			if sig == old {
				sig = new
				if invert {
					if ph == cube.Pos {
						ph = cube.Neg
					} else {
						ph = cube.Pos
					}
				}
			}
			i := sigIndex(newFanins, sig)
			if p := k.Get(i); p != cube.Free && p != ph {
				empty = true // x ∧ x' after merging columns
				break
			}
			k.Set(i, ph)
		}
		if !empty {
			out.Cubes = append(out.Cubes, k)
		}
	}
	nw.setNodeFunc(id, n, newFanins, out.SCC())
	nw.NormalizeNode(name)
	if nw.sigs != nil {
		nw.sigs.markDirty(id)
	}
	if nw.cones != nil {
		nw.cones.markDirty(id)
	}
	return true
}

// Value computes the SIS eliminate value of a node: the literal increase
// caused by collapsing it into all fanouts. value = (uses−1)·lits(n) − uses,
// where uses is the number of literal occurrences of the node's signal in
// fanout covers (positive or negative). Nodes driving POs get value +∞
// (never auto-eliminated) unless allowPO.
func (nw *Network) Value(name string, allowPO bool) int {
	id, ok := nw.sym.Lookup(name)
	if !ok || nw.defs[id] == nil {
		return 1 << 30
	}
	n := nw.defs[id]
	if !allowPO && nw.poMark[id] {
		return 1 << 30
	}
	uses := 0
	for _, foID := range nw.FanoutsOf(id) {
		fo := nw.defs[foID]
		vi := fo.FaninIndex(name)
		for _, c := range fo.Cover.Cubes {
			if c.ContainsVar(vi) {
				uses++
			}
		}
	}
	if uses == 0 {
		return -1 // dead: always worth removing
	}
	l := n.Cover.NumLits()
	return (uses-1)*l - uses
}

// Eliminate collapses every node whose value is ≤ threshold into its
// fanouts, repeating until stable (the SIS `eliminate` command). Returns the
// number of nodes eliminated.
func (nw *Network) Eliminate(threshold int) int {
	defer nw.bulkFanouts()()
	count := 0
	for {
		victim := ""
		best := threshold + 1
		for _, name := range nw.SortedNodeNames() {
			if nw.IsPO(name) {
				continue
			}
			if v := nw.Value(name, false); v <= threshold && v < best {
				victim, best = name, v
			}
		}
		if victim == "" {
			nw.Sweep()
			return count
		}
		for _, fo := range nw.fanoutNames(victim) {
			nw.Compose(fo, victim)
		}
		nw.RemoveNode(victim)
		count++
	}
}
