package core

import (
	"sort"

	"repro/internal/network"
)

// winItem is one BFS queue entry of the window cone walk (dist = distance
// from the dividend/divisor) or one frame of the ordering DFS (dist = next
// fanin position to visit). It is declared here (not inside windowFor)
// because the scratch arena keeps both buffers alive across trials.
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
// Everything here is window-local, so a windowed trial costs O(window):
// the include/frontier sets live in the scratch's stamp arenas, and the
// node order is a fanin-first DFS from f, then d, over the included nodes
// — the same rule TopoOrderIDs applies to a whole network, rooted at the
// window's two outputs instead of at every node in creation order. The
// window is therefore a function of the cones of f and d alone: nodes
// outside them, and the order they were created in, cannot change it.
func windowFor(sc *scratch, nw network.Reader, f, d string, depth int) *network.Network {
	fid, fok := nw.IDOf(f)
	did, dok := nw.IDOf(d)
	if !fok || !dok {
		panic("core: windowFor on un-interned signal")
	}
	sc.winInc.Reset()
	sc.winFr.Reset()
	sc.winDone.Reset()
	sc.winIns = sc.winIns[:0]

	// Breadth-first cone walk: a node closer than depth to f or d is
	// included; a PI, or a signal first reached at the depth bound, is a
	// window input. A signal is classified once, at its first dequeue, so
	// the two sets stay disjoint and every frontier mark emits one input.
	// Every fanin of an included node is queued, so the window is closed:
	// each such fanin ends up included or an input.
	queue := append(sc.winQueue[:0], winItem{fid, 0}, winItem{did, 0})
	for qi := 0; qi < len(queue); qi++ {
		it := queue[qi]
		if sc.winInc.Marked(it.id) || sc.winFr.Marked(it.id) {
			continue
		}
		if nw.NodeByID(it.id) == nil || it.dist >= depth {
			sc.winFr.Mark(it.id)
			sc.winIns = append(sc.winIns, nw.SigName(it.id))
			continue
		}
		sc.winInc.Mark(it.id)
		for _, fi := range nw.FaninIDsOf(it.id) {
			queue = append(queue, winItem{fi, it.dist + 1})
		}
	}
	sc.winQueue = queue

	// Node order: fanin-first DFS from f, then d, restricted to the
	// included nodes. Every included node is reached — the BFS only
	// expanded included nodes, so each one hangs off f or d by a chain of
	// included fanins. A node is claimed on entry, which is safe on an
	// acyclic graph (see network.topoOf).
	sc.winNodes = sc.winNodes[:0]
	stack := sc.winStack[:0]
	for _, root := range [2]network.SigID{fid, did} {
		if !sc.winInc.Marked(root) || !sc.winDone.Mark(root) {
			continue
		}
		stack = append(stack, winItem{root, 0})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if fis := nw.FaninIDsOf(top.id); top.dist < len(fis) {
				fi := fis[top.dist]
				top.dist++
				if sc.winInc.Marked(fi) && sc.winDone.Mark(fi) {
					stack = append(stack, winItem{fi, 0})
				}
				continue
			}
			sc.winNodes = append(sc.winNodes, top.id)
			stack = stack[:len(stack)-1]
		}
	}
	sc.winStack = stack

	w := network.NewSized(nw.NetName()+"@win", len(sc.winIns)+len(sc.winNodes))
	// Sorted window inputs: PI insertion order fixes the window's netlist
	// gate numbering, which learning-capped implication passes are sensitive
	// to — unsorted insertion order here would make windowed runs
	// irreproducible.
	sort.Strings(sc.winIns)
	for _, name := range sc.winIns {
		w.AddPI(name)
	}
	for _, id := range sc.winNodes {
		n := nw.NodeByID(id)
		w.AddNode(n.Name, n.Fanins, n.Cover.Clone())
	}
	w.AddPO(f)
	w.AddPO(d)
	return w
}
