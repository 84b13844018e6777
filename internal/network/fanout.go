package network

import "fmt"

// Live fanout lists. FanoutIDs rebuilds the whole adjacency in O(V+E) per
// call, too much to pay after every commit of a substitution run. A caller
// that needs fanouts between edits enables live lists instead: every
// mutator patches the lists of the fanins it links or unlinks, so a read is
// an O(1) slice lookup and an edit costs O(changed fanins × their fanout
// degree).
//
// A live list holds exactly the node IDs of the matching FanoutIDs entry,
// but in edit-history order rather than creation order, so consumers must
// treat it as a set (every engine consumer does: candidate enumeration
// sorts the candidates it collects, and the rank repair raises each node to
// the same rank whatever order it visits fanouts in). Clones do not carry
// the lists; CopyFrom rebuilds them. Network.Check audits them against a
// fresh FanoutIDs.

// EnableFanouts attaches live fanout lists to the network (a no-op when
// they are already attached). It is meant for the serial owner of a
// long-lived network: readers may share the lists between edits, never
// across one.
func (nw *Network) EnableFanouts() {
	if nw.fanouts == nil {
		nw.fanouts = nw.FanoutIDs()
	}
}

// DisableFanouts detaches the live fanout lists; later edits stop paying
// for their upkeep and FanoutsOf falls back to a scan.
func (nw *Network) DisableFanouts() { nw.fanouts = nil }

// FanoutsOf returns the nodes that read signal id as a fanin. With live
// lists attached (EnableFanouts) it is an O(1) lookup returning the live
// list, valid until the next edit (do not modify); otherwise it scans every
// node and returns a fresh slice in creation order.
//
//bdslint:hotpath
func (nw *Network) FanoutsOf(id SigID) []SigID {
	if nw.fanouts != nil {
		if int(id) < len(nw.fanouts) {
			return nw.fanouts[id]
		}
		return nil
	}
	return nw.scanFanouts(id)
}

// scanFanouts is FanoutsOf without live lists: one pass over every node.
func (nw *Network) scanFanouts(id SigID) []SigID {
	var out []SigID
	for _, n := range nw.order {
		if nw.defs[n] == nil {
			continue
		}
		for _, f := range nw.faninIDs[n] {
			if f == id {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// linkFanouts records node id as a fanout of each signal in fids.
func (nw *Network) linkFanouts(id SigID, fids []SigID) {
	if nw.fanouts == nil {
		return
	}
	for _, f := range fids {
		for int(f) >= len(nw.fanouts) {
			nw.fanouts = append(nw.fanouts, nil)
		}
		nw.fanouts[f] = append(nw.fanouts[f], id)
	}
}

// unlinkFanouts drops node id from the fanout list of each signal in fids.
// Fanin lists are duplicate-free, so id occurs at most once per list.
func (nw *Network) unlinkFanouts(id SigID, fids []SigID) {
	if nw.fanouts == nil {
		return
	}
	for _, f := range fids {
		if int(f) >= len(nw.fanouts) {
			continue
		}
		l := nw.fanouts[f]
		for i, x := range l {
			if x == id {
				nw.fanouts[f] = append(l[:i], l[i+1:]...)
				break
			}
		}
	}
}

// checkFanouts audits the live fanout lists, when attached, against a fresh
// FanoutIDs: every list must hold the same node IDs (as a multiset). A
// mismatch means an edit path forgot to link or unlink an edge.
func (nw *Network) checkFanouts() error {
	if nw.fanouts == nil {
		return nil
	}
	want := nw.FanoutIDs()
	for id := range nw.fanouts {
		if id >= len(want) && len(nw.fanouts[id]) > 0 {
			return fmt.Errorf("network %q: live fanout list of out-of-range id %d is not empty", nw.Name, id)
		}
	}
	seen := make([]int32, nw.sym.Len())
	for id, w := range want {
		var got []SigID
		if id < len(nw.fanouts) {
			got = nw.fanouts[id]
		}
		if len(got) != len(w) {
			return fmt.Errorf("network %q: live fanout list of %q has %d nodes, want %d — an edit path missed link/unlink",
				nw.Name, nw.sym.Name(SigID(id)), len(got), len(w))
		}
		for _, x := range w {
			seen[x]++
		}
		for _, x := range got {
			seen[x]--
		}
		for _, x := range w {
			if seen[x] != 0 {
				return fmt.Errorf("network %q: live fanout list of %q disagrees on %q — an edit path missed link/unlink",
					nw.Name, nw.sym.Name(SigID(id)), nw.sym.Name(x))
			}
		}
	}
	return nil
}
