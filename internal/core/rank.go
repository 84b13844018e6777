package core

import (
	"fmt"

	"repro/internal/network"
)

// Topological ranks: the engine's one dependence oracle.
//
// A divisor that depends on its dividend f would close a cycle, so
// enumeration must refuse every support-sharing node that lies in f's
// transitive fanout. Rather than walk all of TFO(f) for every dividend, it
// keeps a topological rank over the live network's signals, rank(fanin) <
// rank(node) on every edge, and asks about a node u only once u has passed
// a containment filter: a backward fanin search from u that never enters a
// signal ranked at or below f. Ranks climb strictly along every path
// f → … → u, so each signal on such a path after f ranks above f and the
// pruned search walks it: the answer is exact, and the search stays inside
// the band of ranks between f and u.
//
// The batch sweep asks the same search whether a member depends on a node
// its commits touched (rules E1a and E2), pruned at the lowest such rank.
//
// Ranks are seeded from each pass's topological order and repaired after
// every commit: each node the plan installs is raised above its fanins,
// and every raise is carried along fanouts. A rank is never lowered — a
// rank only has to order edges, not be tight — so a repair touches only
// the nodes that a raise reaches. A clone plan rewrites the network
// wholesale, so its commit reseeds instead.

// topoRank is a topological rank over one network's signals: signals that
// drive no node rank 0, and every node ranks above each of its fanins. It
// is valid while the network is at the version it was seeded or repaired
// at. It lives on the serial side (enumeration, commit and the batch
// sweep) and reuses its buffers across calls.
type topoRank struct {
	nw      *network.Network
	version uint64  // nw's version the ranks describe
	r       []int32 // by SigID

	heap  []rankItem        // repair's worklist: a min-heap on rank
	seen  network.ConeArena // the dependence searches' visited marks
	stack []network.SigID   // the dependence searches' stack
}

// rankItem is one repair worklist entry: a node and its rank when queued.
type rankItem struct {
	rank int32
	id   network.SigID
}

// rankCorrupt, when set (tests only), makes a repair drop the first node it
// takes off its worklist to rank 0 instead of raising it — the
// corruption-injection seam proving the Options.Audit rank check fires.
var rankCorrupt bool

// seed ranks every node of nw by its position in order, a topological
// order of nw's live nodes (Network.TopoOrderIDs), and every other signal 0.
func (t *topoRank) seed(nw *network.Network, order []network.SigID) {
	t.nw, t.version = nw, nw.Version()
	n := nw.NumSigs()
	if cap(t.r) < n {
		// Room for the signals a run's commits add, so repairs rarely regrow.
		t.r = make([]int32, n, n+n/8)
	} else {
		t.r = t.r[:n]
		clear(t.r)
	}
	for i, id := range order {
		t.r[id] = int32(i + 1)
	}
}

// update brings the ranks to nw's state after plan p committed: a clone
// plan reseeds them from a fresh topological order, a body plan repairs
// them around the nodes it installed. Under Options.Audit it then checks
// every edge.
func (t *topoRank) update(p *plan, audit bool) {
	nw := t.nw
	if p.clone != nil {
		t.seed(nw, nw.TopoOrderIDs())
	} else {
		for len(t.r) < nw.NumSigs() {
			t.r = append(t.r, 0)
		}
		t.heap = t.heap[:0]
		for _, ns := range [][]*network.Node{p.added, p.bodies} {
			for _, n := range ns {
				if id, ok := nw.IDOf(n.Name); ok {
					t.push(id)
				}
			}
		}
		t.repair()
	}
	if !audit {
		return
	}
	if err := t.check(); err != nil {
		panic("core: rank audit: " + err.Error())
	}
}

// repair drains the worklist: each queued node is raised to one above its
// highest fanin when it ranks lower, and a raised node queues every fanout
// it now reaches or passes. Nodes leave the worklist in increasing rank
// order, so a node is raised after the raises of its fanins and, outside
// the few nodes a plan installs, once.
func (t *topoRank) repair() {
	nw := t.nw
	corrupt := rankCorrupt
	for len(t.heap) > 0 {
		u := t.pop()
		if corrupt {
			t.r[u], corrupt = 0, false
			continue
		}
		need := int32(1)
		for _, x := range nw.FaninIDsOf(u) {
			need = max(need, t.r[x]+1)
		}
		if t.r[u] >= need {
			continue
		}
		t.r[u] = need
		for _, v := range nw.FanoutsOf(u) {
			if t.r[v] <= need {
				t.push(v)
			}
		}
	}
	t.version = nw.Version()
}

// push queues node id at its current rank.
func (t *topoRank) push(id network.SigID) {
	h := append(t.heap, rankItem{t.r[id], id})
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].rank <= h[i].rank {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	t.heap = h
}

// pop removes and returns the queued node of lowest rank.
func (t *topoRank) pop() network.SigID {
	h := t.heap
	top := h[0].id
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].rank < h[c].rank {
			c++
		}
		if h[i].rank <= h[c].rank {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	t.heap = h
	return top
}

// dependsOn reports whether node u depends on node f (f lies in u's fanin
// cone), u ≠ f: the one-target search, pruned at f's rank.
//
//bdslint:hotpath
func (t *topoRank) dependsOn(u, f network.SigID) bool {
	return t.reaches(t.r[f], f, nil, []network.SigID{u})
}

// reaches is the one search loop behind every dependence question: it
// reports whether a signal of srcs is, or depends on, target or a signal
// marked in set (target -1 or a nil set asks for nothing), by a backward
// fanin search that enters only signals ranked above lo. It is exact when
// no target ranks below lo, since ranks climb strictly along every path.
//
//bdslint:hotpath
func (t *topoRank) reaches(lo int32, target network.SigID, set *network.ConeArena, srcs ...[]network.SigID) bool {
	t.seen.Reset()
	t.stack = t.stack[:0]
	for _, ids := range srcs {
		t.stack = append(t.stack, ids...)
	}
	for len(t.stack) > 0 {
		x := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		if x == target || set != nil && set.Marked(x) {
			return true
		}
		if t.r[x] > lo && t.seen.Mark(x) {
			t.stack = append(t.stack, t.nw.FaninIDsOf(x)...)
		}
	}
	return false
}

// mustDescribe panics unless the ranks describe nw at its current version:
// answers from ranks of another network, or of an edit the repair never
// saw, would be silently wrong.
func (t *topoRank) mustDescribe(nw *network.Network) {
	if t.nw != nw || t.version != nw.Version() {
		panic("core: topological rank is stale: it was not seeded or repaired for this network's current version")
	}
}

// auditDependsOn is dependsOn cross-checked against the unpruned
// Network.DependsOn walk; it panics when the two disagree. O(network) per
// call — Options.Audit only.
func (t *topoRank) auditDependsOn(u, f network.SigID) bool {
	got := t.dependsOn(u, f)
	if want := t.nw.DependsOn(t.nw.SigName(u), t.nw.SigName(f)); got != want {
		panic(fmt.Sprintf("core: rank audit: %s depends on %s is %v, the unpruned walk says %v",
			t.nw.SigName(u), t.nw.SigName(f), got, want))
	}
	return got
}

// check reports the first edge whose fanin does not rank below its node,
// or nil when every edge of the live network is ordered.
func (t *topoRank) check() error {
	nw := t.nw
	for _, id := range nw.OrderIDs() {
		for _, x := range nw.FaninIDsOf(id) {
			if t.r[x] >= t.r[id] {
				return fmt.Errorf("edge %s → %s: rank %d is not below %d", nw.SigName(x), nw.SigName(id), t.r[x], t.r[id])
			}
		}
	}
	return nil
}
