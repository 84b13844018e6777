package core

import (
	"repro/internal/algebraic"
	"repro/internal/network"
)

// PlannerBookkeepingProbe runs one sweep of the planner's per-node
// bookkeeping — divisor-candidate enumeration through the node cache, and
// factored-literal costing of each dividend and candidate — over every
// node of nw, without planning or committing anything. It is the seam
// BenchmarkPlannerBookkeeping measures: enumeration reads SigID-indexed
// state instead of string-keyed maps, so its allocs/op is the surface the
// idmap and hotalloc analyzers guard statically and the bench gate guards
// at runtime. Returns the candidate count and summed factored-literal cost
// so callers can sink the work.
func PlannerBookkeepingProbe(nw *network.Network, opt Options) (candidates, lits int) {
	// The same live fanout lists Substitute runs on: enumeration walks
	// them instead of scanning the network per fanin.
	nw.EnableFanouts()
	defer nw.DisableFanouts()
	nc := newNodeCache(nw)
	order := nw.TopoOrderIDs()
	var es enumScratch
	es.rank.seed(nw, order)
	for _, id := range order {
		fn := nw.NodeByID(id)
		if fn == nil || fn.Cover.IsZero() {
			continue
		}
		cands := candidateDivisors(nw, nc, fn.Name, opt, &es)
		candidates += len(cands)
		lits += algebraic.FactorLits(fn.Cover)
		for _, c := range cands {
			if dn := nw.NodeByID(c.id); dn != nil {
				lits += algebraic.FactorLits(dn.Cover)
			}
		}
	}
	return candidates, lits
}
