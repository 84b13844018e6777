package core

import (
	"repro/internal/cube"
	"repro/internal/network"
)

// This file implements the generalization at the end of Section IV: when
// searching for a divisor for f, the cubes of SEVERAL existing nodes are
// pooled and treated as if they came from one node. Each wire of f votes
// over the whole pool in a single implication run; the selected core
// divisor may then combine cubes that no single node exposes. When the core
// comes from one node, the division is that node's single-divisor extended
// division, which the engine's trial sequence has already planned (see
// planPooled); a cross-node core becomes a standalone new node used by f
// (its cost is charged to the acceptance check).

// PoolEntry identifies one pooled divisor cube.
type PoolEntry struct {
	Node    string
	CubeIdx int
}

// PooledVoteTable computes votes for dividing f over the pooled cubes of
// the given divisor nodes (first maxCoreCubes pooled cubes vote). Returns
// the votes, the pool layout, the union signal space used for validity
// checks, and ok.
func PooledVoteTable(nw network.Reader, f string, divisors []string, cfg Config) ([]Vote, []PoolEntry, []string, bool) {
	t, ok := voteTable(newScratch(), nw, f, divisors, cfg)
	return t.votes, t.pool, t.union, ok
}

// PooledExtendedDivide runs extended division of f over a divisor pool. The
// returned network is a rewritten clone; dec describes the decomposition
// (dec.CoreName is the new core node; when the core spans several divisor
// nodes, no divisor is rewritten and the core stands alone).
func PooledExtendedDivide(nw network.Reader, f string, divisors []string, cfg Config) (*network.Network, *DivideResult, *Decomposition, bool) {
	sc := oneShot()
	x, single, ok := pooledExtendedDivide(sc, nw, f, divisors, cfg)
	if single != "" {
		x, ok = extendedDivide(sc, nw, f, single, cfg)
	}
	if !ok {
		return nil, nil, nil, false
	}
	return x.materialize(sc, nw, f, cfg)
}

// pooledExtendedDivide is PooledExtendedDivide with an explicit scratch
// arena. A core from one node d is d's own extended division of f: it
// reports d in single and leaves that division to its caller (see
// extendedDivide). A cross-node core divides like a decomposition's core
// (see divideCore); once that division succeeds it is installed in a deep
// clone, which only a materialized network can Sweep.
func pooledExtendedDivide(sc *scratch, nw network.Reader, f string, divisors []string, cfg Config) (x extDivision, single string, ok bool) {
	t, ok := voteTable(sc, nw, f, divisors, cfg)
	if !ok {
		return extDivision{}, "", false
	}
	pool := t.pool
	mask, score := SelectCore(t.votes, t.poolCubes, t.fU)
	if mask == 0 || score == 0 {
		return extDivision{}, "", false
	}

	// Which nodes contribute to the core? The pool holds at most four
	// entries, so the contributing-node set is a slice scan rather than a
	// map (and its first-appearance order is the pool's deterministic order
	// for free).
	var contribNodes []string
	for k := range pool {
		if mask&(1<<k) != 0 && indexOf(contribNodes, pool[k].Node) < 0 {
			contribNodes = append(contribNodes, pool[k].Node)
		}
	}
	if len(contribNodes) == 1 {
		return extDivision{}, contribNodes[0], true
	}

	// Cross-node core: a standalone node over the union of the
	// contributing cubes' signals, which f is basic-divided by.
	coreCover := cube.NewCover(len(t.union))
	for k := range pool {
		if mask&(1<<k) != 0 {
			coreCover.Cubes = append(coreCover.Cubes, t.poolCubes[k].Clone())
		}
	}
	core := normalized(nw.FreshName("bdp"), t.union, coreCover.SCC())

	res, ok := divideCore(sc, nw, f, []*network.Node{core}, cfg)
	if !ok {
		return extDivision{}, "", false
	}
	res.keep()
	work := nw.Clone()
	work.Install([]*network.Node{core}, []*network.Node{normalized(f, res.Fanins, res.Cover)})
	work.Sweep()
	if work.Node(core.Name) == nil {
		// The division ended up not using the core: nothing gained.
		return extDivision{}, "", false
	}
	return extDivision{clone: work, res: res, dec: &Decomposition{CoreName: core.Name, CoreMask: mask}}, "", true
}
