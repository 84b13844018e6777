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
// comes from one node, that node is decomposed exactly as in single-divisor
// extended division; a cross-node core becomes a standalone new node used
// by f (its cost is charged to the acceptance check).

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
	work, res, dec, ok := pooledExtendedDivide(newScratch(), nw, f, divisors, cfg)
	if !ok {
		return nil, nil, nil, false
	}
	return materializeTrial(work), res, dec, true
}

// pooledExtendedDivide is PooledExtendedDivide with an explicit scratch
// arena. Single-node cores return extendedDivide's working copy (an overlay
// on the copy-on-write path); the cross-node core path always returns a deep
// clone — it needs Sweep, which only a materialized network supports.
func pooledExtendedDivide(sc *scratch, nw network.Reader, f string, divisors []string, cfg Config) (trialNet, *DivideResult, *Decomposition, bool) {
	t, ok := voteTable(sc, nw, f, divisors, cfg)
	if !ok {
		return nil, nil, nil, false
	}
	pool := t.pool
	mask, score := SelectCore(t.votes, t.poolCubes, t.fU)
	if mask == 0 || score == 0 {
		return nil, nil, nil, false
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
		return extendedDivide(sc, nw, f, contribNodes[0], cfg)
	}

	// Cross-node core: materialize it as a standalone node over the union
	// of the contributing cubes' signals, then basic-divide f by it.
	work := nw.Clone()
	coreName := work.FreshName("bdp")
	coreCover := cube.NewCover(len(t.union))
	for k := range pool {
		if mask&(1<<k) != 0 {
			coreCover.Cubes = append(coreCover.Cubes, t.poolCubes[k].Clone())
		}
	}
	work.AddNode(coreName, t.union, coreCover.SCC())
	work.NormalizeNode(coreName)

	res, ok := divide(sc, work, nil, f, candidate{name: coreName}, cfg)
	if !ok {
		return nil, nil, nil, false
	}
	if err := work.ReplaceNodeFunction(f, res.Fanins, res.Cover); err != nil {
		return nil, nil, nil, false
	}
	work.NormalizeNode(f)
	work.Sweep()
	if work.Node(coreName) == nil {
		// The division ended up not using the core: nothing gained.
		return nil, nil, nil, false
	}
	return work, res, &Decomposition{CoreName: coreName, CoreMask: mask}, true
}
