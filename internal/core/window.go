package core

import (
	"slices"
	"strings"

	"repro/internal/network"
)

// regionReach is the deepest window a region-local (Basic or Extended)
// trial can tell apart: deeper windows prove exactly the same
// redundancies. localScope lets the implication engine derive values only
// at f's and d's gates, at their literal gates, and at the cube gates of
// their fanin nodes. Implications at those cube gates assign the literal
// gates of the fanin nodes' own fanins — signals two steps out — but no
// gate there is in scope, so none of them is ever implied at. Whether such
// a signal is a window input or a node of a deeper window, and everything
// behind it, cannot change a proof: a depth-2 window gives the same plans
// as any deeper one. TestWindowTrialMatchesReference checks it plan for
// plan against full-depth windows.
const regionReach = 2

// winItem is one BFS queue entry of the window cone walk (dist = distance
// from the dividend/divisor) or one frame of the ordering DFS (dist = next
// fanin position to visit).
type winItem struct {
	id   network.SigID
	dist int
}

// window is a sub-network carved around dividend f and divisor d: their
// fanin cones up to a depth, as SigID lists of the network it was carved
// from. Implications inside a window are a subset of whole-network
// implications, so any division proved there is sound in the full
// circuit, while the per-trial cost becomes independent of circuit size.
// A scratch owns one window and carves it again for every windowed trial,
// so the stamp sets and buffers are reused and a carve allocates nothing
// proportional to the network.
type window struct {
	// ins are the window inputs (primary inputs, and signals first reached
	// at the depth bound), sorted by name; nodes are the included nodes in
	// a fanin-first order; outs are f and d, the window's two outputs.
	ins, nodes []network.SigID
	outs       [2]network.SigID

	inc, fr, done network.ConeArena
	queue, stack  []winItem
}

// carve selects the window around fid and did of the given depth and
// returns w. Everything here is window-local, so it costs O(window): the
// include/frontier sets live in stamp arenas, and the node order is a
// fanin-first DFS from f, then d, over the included nodes — the same rule
// TopoOrderIDs applies to a whole network, rooted at the window's two
// outputs instead of at every node in creation order. The window is
// therefore a function of the cones of f and d alone: nodes outside them,
// and the order they were created in, cannot change it.
func (w *window) carve(nw network.Reader, fid, did network.SigID, depth int) *window {
	w.inc.Reset()
	w.fr.Reset()
	w.done.Reset()
	w.ins = w.ins[:0]
	w.outs = [2]network.SigID{fid, did}

	// Breadth-first cone walk: a node closer than depth to f or d is
	// included; a PI, or a signal first reached at the depth bound, is a
	// window input. A signal is classified once, at its first dequeue, so
	// the two sets stay disjoint and every frontier mark emits one input.
	// Every fanin of an included node is queued, so the window is closed:
	// each such fanin ends up included or an input.
	queue := append(w.queue[:0], winItem{fid, 0}, winItem{did, 0})
	for qi := 0; qi < len(queue); qi++ {
		it := queue[qi]
		if w.inc.Marked(it.id) || w.fr.Marked(it.id) {
			continue
		}
		if nw.NodeByID(it.id) == nil || it.dist >= depth {
			w.fr.Mark(it.id)
			w.ins = append(w.ins, it.id)
			continue
		}
		w.inc.Mark(it.id)
		for _, fi := range nw.FaninIDsOf(it.id) {
			queue = append(queue, winItem{fi, it.dist + 1})
		}
	}
	w.queue = queue

	// Node order: fanin-first DFS from f, then d, restricted to the
	// included nodes. Every included node is reached — the BFS only
	// expanded included nodes, so each one hangs off f or d by a chain of
	// included fanins. A node is claimed on entry, which is safe on an
	// acyclic graph (see network.topoOf).
	w.nodes = w.nodes[:0]
	stack := w.stack[:0]
	for _, root := range w.outs {
		if !w.inc.Marked(root) || !w.done.Mark(root) {
			continue
		}
		stack = append(stack, winItem{root, 0})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if fis := nw.FaninIDsOf(top.id); top.dist < len(fis) {
				fi := fis[top.dist]
				top.dist++
				if w.inc.Marked(fi) && w.done.Mark(fi) {
					stack = append(stack, winItem{fi, 0})
				}
				continue
			}
			w.nodes = append(w.nodes, top.id)
			stack = stack[:len(stack)-1]
		}
	}
	w.stack = stack

	// Sorted window inputs: input order fixes the window's netlist gate
	// numbering, which learning-capped implication passes are sensitive to
	// — BFS discovery order would make the numbering depend on the fanin
	// order of the nodes around f and d.
	slices.SortFunc(w.ins, func(a, b network.SigID) int {
		return strings.Compare(nw.SigName(a), nw.SigName(b))
	})
	return w
}

// dependsOn reports whether the divisor depends on the dividend inside
// the window — network.DependsOn(d, f) on the network windowFor
// materializes — as one pass over the carved nodes: a node depends on f
// when it is f or reads an included node that does, and every node comes
// after its included fanins.
func (w *window) dependsOn(nw network.Reader) bool {
	fid, did := w.outs[0], w.outs[1]
	w.done.Reset()
	w.done.Mark(fid)
	for _, id := range w.nodes {
		for _, fi := range nw.FaninIDsOf(id) {
			if w.done.Marked(fi) {
				w.done.Mark(id)
				break
			}
		}
	}
	return w.done.Marked(did)
}

// windowFor carves the window around f and d and materializes it as a
// standalone network: the window inputs become primary inputs, the
// included nodes are copied with their real signal names (so division
// results apply to the full network directly), and f and d are the
// outputs. Only the reference trial paths build it — Options.NoOverlay,
// which Options.Audit replays every trial on, and ExtendedGDC, whose
// learning pass examines at most 32 gates in gate-id order and so must
// see exactly the netlist a build of this network numbers. The default
// path builds the window's netlist straight from the carve (see
// divideWithParts).
func windowFor(sc *scratch, nw network.Reader, f, d string, depth int) *network.Network {
	fid, fok := nw.IDOf(f)
	did, dok := nw.IDOf(d)
	if !fok || !dok {
		panic("core: windowFor on un-interned signal")
	}
	win := sc.win.carve(nw, fid, did, depth)
	w := network.NewSized(nw.NetName()+"@win", len(win.ins)+len(win.nodes))
	for _, id := range win.ins {
		w.AddPI(nw.SigName(id))
	}
	for _, id := range win.nodes {
		n := nw.NodeByID(id)
		w.AddNode(n.Name, n.Fanins, n.Cover.Clone())
	}
	w.AddPO(f)
	w.AddPO(d)
	return w
}
