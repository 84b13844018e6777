package network

import "repro/internal/cube"

// Simulate evaluates the network on 64 parallel input patterns: piWords maps
// each PI name to a 64-bit word (bit k = value of that PI in pattern k).
// It returns a word per signal (PIs included). Every PI must be present in
// piWords; a missing entry panics (like the package's other invariant
// violations) rather than silently simulating the PI as constant 0.
// Internally the evaluation runs on the dense ID core (one slice index per
// fanin read); the maps exist only at this boundary.
func (nw *Network) Simulate(piWords map[string]uint64) map[string]uint64 {
	val := make([]uint64, nw.sym.Len())
	for i, pi := range nw.pis {
		w, ok := piWords[nw.piNames[i]]
		if !ok {
			panic("network: Simulate missing PI " + nw.piNames[i])
		}
		val[pi] = w
	}
	ids := nw.TopoOrderIDs()
	out := make(map[string]uint64, len(ids)+len(nw.pis))
	for i, pi := range nw.pis {
		out[nw.piNames[i]] = val[pi]
	}
	for _, id := range ids {
		n := nw.defs[id]
		val[id] = evalCoverIDs(n.Cover, nw.faninIDs[id], val)
		out[nw.sym.Name(id)] = val[id]
	}
	return out
}

// evalCoverIDs evaluates a cover bit-parallel given a SigID-indexed word
// slice (an undriven fanin reads as constant 0, matching the historical
// missing-map-entry behavior).
func evalCoverIDs(f cube.Cover, fanins []SigID, val []uint64) uint64 {
	var out uint64
	for _, c := range f.Cubes {
		w := ^uint64(0)
		// A direct scan of the cube's few variables: Lits would allocate a
		// slice per cube per word on the signature refresh path.
		for v := 0; v < c.NumVars() && w != 0; v++ {
			switch c.Get(v) {
			case cube.Pos:
				w &= val[fanins[v]]
			case cube.Neg:
				w &= ^val[fanins[v]]
			}
		}
		out |= w
		if out == ^uint64(0) {
			break
		}
	}
	return out
}

// GlobalCover collapses signal name into a cover over the primary inputs,
// whose variable i corresponds to piOrder[i]. Exponential in the worst case;
// intended for small cones (verification, don't-care analysis).
func (nw *Network) GlobalCover(name string, piOrder []string) cube.Cover {
	// SigID-indexed PI positions and memo table: every signal the collapse
	// can reach is interned (it is a PI or a driven node), so dense slices
	// replace the name-keyed maps this walk used to allocate.
	idx := make([]int, nw.sym.Len())
	for i := range idx {
		idx[i] = -1
	}
	for i, pi := range piOrder {
		if id, ok := nw.sym.Lookup(pi); ok {
			idx[id] = i
		}
	}
	memo := make([]cube.Cover, nw.sym.Len())
	known := make([]bool, nw.sym.Len())
	var global func(string) cube.Cover
	global = func(s string) cube.Cover {
		id, ok := nw.sym.Lookup(s)
		if !ok {
			panic("network: unknown signal " + s)
		}
		if known[id] {
			return memo[id]
		}
		n := len(piOrder)
		if i := idx[id]; i >= 0 {
			c := cube.New(n)
			c.Set(i, cube.Pos)
			g := cube.CoverOf(n, c)
			memo[id], known[id] = g, true
			return g
		}
		nd := nw.Node(s)
		if nd == nil {
			panic("network: unknown signal " + s)
		}
		// Substitute each fanin's global cover into the local SOP.
		out := cube.NewCover(n)
		for _, c := range nd.Cover.Cubes {
			term := cube.CoverOf(n, cube.New(n))
			for _, v := range c.Lits() {
				g := global(nd.Fanins[v])
				if c.Get(v) == cube.Neg {
					g = g.Complement()
				}
				term = term.And(g)
				if term.IsZero() {
					break
				}
			}
			out = out.Or(term)
		}
		out = out.SCC()
		memo[id], known[id] = out, true
		return out
	}
	return global(name)
}
