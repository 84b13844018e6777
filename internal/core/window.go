package core

import (
	"sort"

	"repro/internal/network"
)

// winItem is one BFS queue entry of the window cone walk. It is declared
// here (not inside windowFor) because the scratch arena keeps the queue
// alive across trials.
type winItem struct {
	id   network.SigID
	dist int
}

// windowFor extracts a bounded sub-network around dividend f and divisor d:
// their fanin cones up to the given depth are copied; signals at the
// boundary become window primary inputs. Implications inside the window are
// a subset of whole-network implications, so any division proved there is
// sound in the full circuit, while the per-trial cost becomes independent
// of circuit size. The window's signal names are the real signal names, so
// division results apply to the full network directly.
//
// When the scratch carries a valid passIndex for nw (the live network at
// the current commit epoch — the common case for the planner), the
// include/frontier sets live in reusable stamp arenas and node emission
// order comes from the index's topoPos array, so a windowed trial costs
// O(window) instead of O(network): the historical path paid two O(NumSigs)
// bool-slice allocations plus a full TopoOrderIDs DFS per trial, which
// dominated windowed runs on 100k-gate circuits. Both paths emit the same
// window byte-for-byte: the BFS visits the same signals (same FIFO order),
// inputs are sorted by name either way, and sorting included nodes by
// whole-network topo position is exactly "full topo order restricted to
// the window" — topoPos is a total order drawn from that same sequence.
func windowFor(sc *scratch, nw network.Reader, f, d string, depth int) *network.Network {
	fid, fok := nw.IDOf(f)
	did, dok := nw.IDOf(d)
	if !fok || !dok {
		panic("core: windowFor on un-interned signal")
	}
	if ix := sc.epochIdx; ix.matches(nw, sc.epoch) {
		return windowFast(sc, ix, nw, f, d, fid, did, depth)
	}

	nsig := nw.NumSigs()
	include := make([]bool, nsig)
	frontier := make([]bool, nsig)
	queue := []winItem{{fid, 0}, {did, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if include[it.id] || frontier[it.id] {
			continue
		}
		n := nw.NodeByID(it.id)
		if n == nil || it.dist >= depth {
			// PI of the network, or at the boundary: window input.
			frontier[it.id] = true
			continue
		}
		include[it.id] = true
		for _, fi := range nw.FaninIDsOf(it.id) {
			queue = append(queue, winItem{fi, it.dist + 1})
		}
	}
	// Boundary repair: a fanin of an included node that is not included
	// must be a frontier input.
	for id, inc := range include {
		if !inc {
			continue
		}
		for _, fi := range nw.FaninIDsOf(network.SigID(id)) {
			if !include[fi] {
				frontier[fi] = true
			}
		}
	}

	w := network.New(nw.NetName() + "@win")
	// Sorted window inputs: PI insertion order fixes the window's netlist
	// gate numbering, which learning-capped implication passes are sensitive
	// to — unsorted insertion order here would make windowed runs
	// irreproducible.
	var inputs []string
	for id, fr := range frontier {
		if fr && !include[id] {
			inputs = append(inputs, nw.SigName(network.SigID(id)))
		}
	}
	sort.Strings(inputs)
	for _, name := range inputs {
		w.AddPI(name)
	}
	// Add nodes in the full network's topological order restricted to the
	// window.
	for _, id := range nw.TopoOrderIDs() {
		if include[id] {
			n := nw.NodeByID(id)
			w.AddNode(n.Name, n.Fanins, n.Cover.Clone())
		}
	}
	w.AddPO(f)
	w.AddPO(d)
	return w
}

// windowFast is windowFor's arena-backed path. The BFS below mirrors the
// fallback exactly (same FIFO discipline, same include/frontier decisions);
// only the set representation differs. The include and frontier sets are
// disjoint by construction (a marked signal is skipped at dequeue, and the
// boundary repair only marks unmarked signals), which is what lets the
// input collection split into the two sweeps below without a joint
// "frontier and not include" rescan of the whole signal space.
func windowFast(sc *scratch, ix *passIndex, nw network.Reader, f, d string, fid, did network.SigID, depth int) *network.Network {
	sc.winCur++
	if sc.winCur == 0 {
		for i := range sc.winInc {
			sc.winInc[i] = 0
		}
		for i := range sc.winFr {
			sc.winFr[i] = 0
		}
		sc.winCur = 1
	}
	cur := sc.winCur
	mark := func(set *[]uint32, id network.SigID) {
		for int(id) >= len(*set) {
			*set = append(*set, 0)
		}
		(*set)[id] = cur
	}
	marked := func(set []uint32, id network.SigID) bool {
		return int(id) < len(set) && set[id] == cur
	}

	sc.winNodes = sc.winNodes[:0]
	sc.winIns = sc.winIns[:0]
	queue := append(sc.winQueue[:0], winItem{fid, 0}, winItem{did, 0})
	for qi := 0; qi < len(queue); qi++ {
		it := queue[qi]
		if marked(sc.winInc, it.id) || marked(sc.winFr, it.id) {
			continue
		}
		n := nw.NodeByID(it.id)
		if n == nil || it.dist >= depth {
			mark(&sc.winFr, it.id)
			continue
		}
		mark(&sc.winInc, it.id)
		sc.winNodes = append(sc.winNodes, it.id)
		for _, fi := range nw.FaninIDsOf(it.id) {
			queue = append(queue, winItem{fi, it.dist + 1})
		}
	}
	sc.winQueue = queue

	// Boundary repair + input collection in one sweep over the included
	// nodes (the fallback scans all signals; only included nodes can have
	// un-included fanins needing repair, and only frontier-not-included
	// signals become inputs).
	for _, id := range sc.winNodes {
		for _, fi := range nw.FaninIDsOf(id) {
			if !marked(sc.winInc, fi) && !marked(sc.winFr, fi) {
				mark(&sc.winFr, fi)
				sc.winIns = append(sc.winIns, nw.SigName(fi))
			}
		}
	}
	// Frontier signals reached by the BFS itself (depth boundary or PI)
	// that did not later become include are inputs too; they were marked
	// before the repair sweep so the loop above skipped them.
	for qi := range queue {
		id := queue[qi].id
		if marked(sc.winFr, id) && !marked(sc.winInc, id) {
			// Dedup: clear the frontier stamp as we emit, so a signal queued
			// twice emits once.
			sc.winFr[id] = cur - 1
			sc.winIns = append(sc.winIns, nw.SigName(id))
		}
	}

	w := network.New(nw.NetName() + "@win")
	sort.Strings(sc.winIns)
	for _, name := range sc.winIns {
		w.AddPI(name)
	}
	sort.Slice(sc.winNodes, func(i, j int) bool {
		return ix.topoPos[sc.winNodes[i]] < ix.topoPos[sc.winNodes[j]]
	})
	for _, id := range sc.winNodes {
		n := nw.NodeByID(id)
		w.AddNode(n.Name, n.Fanins, n.Cover.Clone())
	}
	w.AddPO(f)
	w.AddPO(d)
	return w
}
