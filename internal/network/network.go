// Package network implements the multilevel Boolean network on which all
// optimization operates: nodes carrying local sum-of-product covers over
// their fanin signals, primary inputs and outputs, structural editing
// (substitution, collapsing, sweeping), 64-way parallel simulation, and the
// SOP/factored literal statistics the paper reports.
//
// The core is dense-ID: every signal name is interned once into a SymTab
// and all storage — node bodies, fanin lists, iteration order, signature
// and cone tables — is slice-backed, indexed by SigID. Strings survive only
// on the Node's public face (Name/Fanins) and at the BLIF parse/print
// boundary; every graph walk inside the package runs on integer IDs.
package network

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/algebraic"
	"repro/internal/cube"
)

// Node is an internal node: a local SOP over its fanin signals. Variable i
// of the cover corresponds to Fanins[i]. Name and Fanins are the node's
// boundary face; the owning network keeps the parallel fanin-ID list (see
// Network.FaninIDsOf), so code outside the package never re-resolves names.
type Node struct {
	Name   string
	Fanins []string
	Cover  cube.Cover
}

// Clone deep-copies the node.
func (n *Node) Clone() *Node {
	f := make([]string, len(n.Fanins))
	copy(f, n.Fanins)
	return &Node{Name: n.Name, Fanins: f, Cover: n.Cover.Clone()}
}

// FaninIndex returns the local variable index of signal s, or -1.
func (n *Node) FaninIndex(s string) int {
	for i, f := range n.Fanins {
		if f == s {
			return i
		}
	}
	return -1
}

// Network is a combinational multilevel Boolean network with dense-ID,
// slice-backed storage. The invariant tying the slices together: sym
// assigns every seen name a SigID; defs, piMark, poMark and faninIDs are
// indexed by SigID and always sym.Len() long; order lists node-creation IDs (stale
// entries of removed nodes are skipped on iteration, exactly like the
// name-keyed core skipped deleted map entries), each ID at most once, and
// inOrder marks the IDs it lists.
//
// faninIDs slices are immutable once installed: every mutator installs a
// freshly built slice instead of editing in place, so Clone can share them
// with the original (copy-on-write at the granularity of one fanin list).
type Network struct {
	Name     string
	sym      *SymTab
	defs     []*Node   // by SigID; nil for PIs, undriven names, removed nodes
	piMark   []bool    // by SigID
	poMark   []bool    // by SigID: declared primary output (AddPO's O(1) duplicate check)
	faninIDs [][]SigID // by SigID, parallel to defs[id].Fanins; immutable slices
	pis      []SigID
	piNames  []string // parallel to pis (the PIs() boundary slice)
	posIDs   []SigID
	poNames  []string   // parallel to posIDs (the POs() boundary slice)
	order    []SigID    // node creation order, for deterministic iteration
	inOrder  []bool     // by SigID: listed in order (a live node, or a removed node's stale entry)
	fanouts  [][]SigID  // live fanout lists by SigID (nil unless EnableFanouts), see fanout.go
	sigs     *SigTable  // simulation signatures (nil unless EnableSigs), see sig.go
	cones    *ConeTable // structural cone hashes (nil unless EnableCones), see conehash.go
}

// New creates an empty network.
func New(name string) *Network { return NewSized(name, 0) }

// NewSized creates an empty network with room for nsig signals, so a
// builder that knows its size up front (a trial window) interns without
// growing the symbol table and the ID-indexed slices step by step.
func NewSized(name string, nsig int) *Network {
	return &Network{
		Name:     name,
		sym:      newSymTab(nsig),
		defs:     make([]*Node, 0, nsig),
		piMark:   make([]bool, 0, nsig),
		poMark:   make([]bool, 0, nsig),
		faninIDs: make([][]SigID, 0, nsig),
		order:    make([]SigID, 0, nsig),
		inOrder:  make([]bool, 0, nsig),
	}
}

// intern assigns (or returns) the dense ID of name and grows the ID-indexed
// slices to cover it.
func (nw *Network) intern(name string) SigID {
	id := nw.sym.Intern(name)
	for len(nw.defs) < nw.sym.Len() {
		nw.defs = append(nw.defs, nil)
		nw.piMark = append(nw.piMark, false)
		nw.poMark = append(nw.poMark, false)
		nw.faninIDs = append(nw.faninIDs, nil)
		nw.inOrder = append(nw.inOrder, false)
	}
	return id
}

// internFanins interns every fanin name into a freshly allocated ID slice.
func (nw *Network) internFanins(fanins []string) []SigID {
	if len(fanins) == 0 {
		return nil
	}
	ids := make([]SigID, len(fanins))
	for i, f := range fanins {
		ids[i] = nw.intern(f)
	}
	return ids
}

// AddPI declares a primary input signal.
func (nw *Network) AddPI(name string) {
	id := nw.intern(name)
	if nw.defs[id] != nil || nw.piMark[id] {
		panic(fmt.Sprintf("network: duplicate signal %q", name))
	}
	nw.piMark[id] = true
	nw.pis = append(nw.pis, id)
	nw.piNames = append(nw.piNames, name)
}

// AddPO declares signal name as a primary output. The signal must exist (PI
// or node) by the time the network is used. Declaring the same output twice
// panics, mirroring AddPI/AddNode (network.Check reports the same violation
// on networks assembled another way).
func (nw *Network) AddPO(name string) {
	id := nw.intern(name)
	if nw.poMark[id] {
		panic(fmt.Sprintf("network: duplicate primary output %q", name))
	}
	nw.poMark[id] = true
	nw.posIDs = append(nw.posIDs, id)
	nw.poNames = append(nw.poNames, name)
}

// AddNode installs a node computing cover over fanins. Fanins must be
// distinct; the cover's variable space must match len(fanins).
func (nw *Network) AddNode(name string, fanins []string, cover cube.Cover) *Node {
	if cover.NumVars() != len(fanins) {
		panic(fmt.Sprintf("network: node %q cover space %d != fanins %d", name, cover.NumVars(), len(fanins)))
	}
	id := nw.intern(name)
	if nw.defs[id] != nil || nw.piMark[id] {
		panic(fmt.Sprintf("network: duplicate signal %q", name))
	}
	for i, f := range fanins {
		for j := 0; j < i; j++ {
			if fanins[j] == f {
				panic(fmt.Sprintf("network: node %q repeated fanin %q", name, f))
			}
		}
	}
	n := &Node{Name: name, Fanins: append([]string(nil), fanins...), Cover: cover}
	nw.defs[id] = n
	nw.faninIDs[id] = nw.internFanins(fanins)
	nw.linkFanouts(id, nw.faninIDs[id])
	nw.appendOrder(id)
	if nw.sigs != nil {
		nw.sigs.markDirty(id)
	}
	if nw.cones != nil {
		nw.cones.markDirty(id)
	}
	return n
}

// PIs returns the primary input names (do not modify).
func (nw *Network) PIs() []string { return nw.piNames }

// POs returns the primary output signal names (do not modify).
func (nw *Network) POs() []string { return nw.poNames }

// Node returns the node driving signal name, or nil for PIs/unknown.
func (nw *Network) Node(name string) *Node {
	if id, ok := nw.sym.Lookup(name); ok {
		return nw.defs[id]
	}
	return nil
}

// Nodes returns all nodes in deterministic (creation) order.
func (nw *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(nw.order))
	for _, id := range nw.order {
		if n := nw.defs[id]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// NumNodes returns the internal node count.
func (nw *Network) NumNodes() int {
	c := 0
	for _, id := range nw.order {
		if nw.defs[id] != nil {
			c++
		}
	}
	return c
}

func (nw *Network) isPI(name string) bool {
	if id, ok := nw.sym.Lookup(name); ok {
		return nw.piMark[id]
	}
	return false
}

// IsPI reports whether name is a primary input.
func (nw *Network) IsPI(name string) bool { return nw.isPI(name) }

// IsPO reports whether name is declared as a primary output.
func (nw *Network) IsPO(name string) bool {
	id, ok := nw.sym.Lookup(name)
	return ok && nw.poMark[id]
}

// --- Dense-ID surface -------------------------------------------------

// NumSigs returns the size of the dense ID space (every name ever interned:
// PIs, nodes, undriven references, removed nodes).
func (nw *Network) NumSigs() int { return nw.sym.Len() }

// IDOf returns the dense ID of name; ok=false when the name has never been
// interned. A pure probe: it never extends the ID space.
//
//bdslint:hotpath
func (nw *Network) IDOf(name string) (SigID, bool) { return nw.sym.Lookup(name) }

// SigName returns the name bound to id.
//
//bdslint:hotpath
func (nw *Network) SigName(id SigID) string { return nw.sym.Name(id) }

// NodeByID returns the node driving signal id, or nil (read-only).
//
//bdslint:hotpath
func (nw *Network) NodeByID(id SigID) *Node { return nw.defs[id] }

// FaninIDsOf returns node id's fanin IDs, parallel to its Fanins slice (do
// not modify — the slice is shared with clones). Nil for PIs/unknown.
//
//bdslint:hotpath
func (nw *Network) FaninIDsOf(id SigID) []SigID { return nw.faninIDs[id] }

// OrderIDs returns the live node IDs in creation order.
func (nw *Network) OrderIDs() []SigID {
	out := make([]SigID, 0, len(nw.order))
	for _, id := range nw.order {
		if nw.defs[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// PIIDs returns the primary input IDs in declaration order (do not modify).
func (nw *Network) PIIDs() []SigID { return nw.pis }

// POIDs returns the primary output IDs in declaration order (do not
// modify).
func (nw *Network) POIDs() []SigID { return nw.posIDs }

// RemoveNode deletes the node driving name. The caller must ensure nothing
// references it (Sweep does this in bulk). The name stays interned: its ID
// is still valid (NodeByID reports nil) and a later AddNode may rebind it.
func (nw *Network) RemoveNode(name string) {
	id, ok := nw.sym.Lookup(name)
	if !ok {
		return
	}
	nw.unlinkFanouts(id, nw.faninIDs[id])
	nw.defs[id] = nil
	nw.faninIDs[id] = nil
	if nw.sigs != nil {
		nw.sigs.markDirty(id)
	}
	if nw.cones != nil {
		nw.cones.markDirty(id)
	}
}

// Clone deep-copies the network. The signature and cone-hash tables and the
// live fanout lists (EnableSigs/EnableCones/EnableFanouts) are NOT carried
// over: clones are speculative scratch copies and must not pay for their
// maintenance. Fanin-ID slices are shared with the original (they are
// immutable — every mutator installs a fresh slice), so the copy is
// O(nodes) plus the node bodies.
func (nw *Network) Clone() *Network {
	c := &Network{
		Name:     nw.Name,
		sym:      nw.sym.Clone(),
		defs:     make([]*Node, len(nw.defs)),
		piMark:   append([]bool(nil), nw.piMark...),
		poMark:   append([]bool(nil), nw.poMark...),
		faninIDs: append([][]SigID(nil), nw.faninIDs...),
		pis:      append([]SigID(nil), nw.pis...),
		piNames:  append([]string(nil), nw.piNames...),
		posIDs:   append([]SigID(nil), nw.posIDs...),
		poNames:  append([]string(nil), nw.poNames...),
		order:    append([]SigID(nil), nw.order...),
		inOrder:  append([]bool(nil), nw.inOrder...),
	}
	for id, n := range nw.defs {
		if n != nil {
			c.defs[id] = n.Clone()
		}
	}
	return c
}

// CopyFrom replaces nw's entire contents with a deep copy of o (used to
// commit a speculative rewrite produced on a clone).
func (nw *Network) CopyFrom(o *Network) {
	c := o.Clone()
	nw.Name = c.Name
	nw.sym = c.sym
	nw.defs = c.defs
	nw.piMark = c.piMark
	nw.poMark = c.poMark
	nw.faninIDs = c.faninIDs
	nw.pis = c.pis
	nw.piNames = c.piNames
	nw.posIDs = c.posIDs
	nw.poNames = c.poNames
	nw.order = c.order
	nw.inOrder = c.inOrder
	if nw.fanouts != nil {
		nw.fanouts = nw.FanoutIDs()
	}
	if nw.sigs != nil {
		// A whole-network rewrite: every signature is suspect.
		nw.sigs.markAllDirty()
	}
	if nw.cones != nil {
		nw.cones.markAllDirty()
	}
}

// FanoutIDs returns, for every signal ID, the node IDs that read it as a
// fanin, in deterministic (creation, then fanin-position) order: a fresh
// O(V+E) snapshot (see EnableFanouts for lists kept live across edits).
// Built in two counted passes over one flat backing array, each list capped
// at its own length so appending to one never overwrites its neighbour.
func (nw *Network) FanoutIDs() [][]SigID {
	n := nw.sym.Len()
	deg := make([]int32, n)
	total := 0
	for _, id := range nw.order {
		if nw.defs[id] == nil {
			continue
		}
		for _, f := range nw.faninIDs[id] {
			deg[f]++
			total++
		}
	}
	flat := make([]SigID, total)
	out := make([][]SigID, n)
	off := 0
	for i := range out {
		d := int(deg[i])
		out[i] = flat[off : off : off+d]
		off += d
	}
	for _, id := range nw.order {
		if nw.defs[id] == nil {
			continue
		}
		for _, f := range nw.faninIDs[id] {
			out[f] = append(out[f], id)
		}
	}
	return out
}

// Fanouts returns, for every signal, the list of node names that use it as
// a fanin, in deterministic order.
func (nw *Network) Fanouts() map[string][]string {
	out := make(map[string][]string)
	for _, n := range nw.Nodes() {
		for _, f := range n.Fanins {
			out[f] = append(out[f], n.Name)
		}
	}
	return out
}

// TopoOrderIDs returns live node IDs such that every node appears after all
// its fanin nodes. Panics on a combinational cycle. The visiting sequence
// is creation order with a fanin-first DFS — byte-identical (through the
// symbol table) to the historical name-keyed walk.
func (nw *Network) TopoOrderIDs() []SigID {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make([]uint8, nw.sym.Len())
	out := make([]SigID, 0, len(nw.order))
	var visit func(SigID)
	visit = func(id SigID) {
		if nw.piMark[id] || nw.defs[id] == nil {
			return
		}
		switch state[id] {
		case visiting:
			panic("network: combinational cycle at " + nw.sym.Name(id))
		case done:
			return
		}
		state[id] = visiting
		for _, f := range nw.faninIDs[id] {
			visit(f)
		}
		state[id] = done
		out = append(out, id)
	}
	for _, id := range nw.order {
		if nw.defs[id] != nil {
			visit(id)
		}
	}
	return out
}

// TopoOrder returns node names such that every node appears after all its
// fanin nodes. Panics on a combinational cycle.
func (nw *Network) TopoOrder() []string {
	ids := nw.TopoOrderIDs()
	if len(ids) == 0 {
		return nil // historical name-keyed walk returned nil, not empty
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = nw.sym.Name(id)
	}
	return out
}

// depScratch is the reusable visited/stack state for DependsOn walks.
// Entries are epoch-stamped so "clearing" between walks is a counter bump,
// not an O(symbols) memset; the slice itself is pooled because DependsOn
// runs once or twice per divisor trial and a fresh per-call allocation
// dominated the allocation profile on 100k-gate circuits.
type depScratch struct {
	stamp []uint32
	epoch uint32
	stack []SigID
}

var depPool = sync.Pool{New: func() any { return new(depScratch) }}

// DependsOn reports whether signal a transitively depends on signal b (b is
// in a's fanin cone, or a == b).
func (nw *Network) DependsOn(a, b string) bool {
	if a == b {
		return true
	}
	aid, aok := nw.sym.Lookup(a)
	if !aok {
		return false
	}
	bid, bok := nw.sym.Lookup(b)
	if !bok {
		return false
	}
	sc := depPool.Get().(*depScratch)
	if len(sc.stamp) < nw.sym.Len() {
		sc.stamp = make([]uint32, nw.sym.Len())
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps from 2^32 walks ago are now "seen"
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	found := false
	sc.stack = append(sc.stack[:0], aid)
	sc.stamp[aid] = sc.epoch
	for len(sc.stack) > 0 {
		id := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		if id == bid {
			found = true
			break
		}
		if nw.defs[id] == nil {
			continue
		}
		for _, f := range nw.faninIDs[id] {
			if sc.stamp[f] != sc.epoch {
				sc.stamp[f] = sc.epoch
				sc.stack = append(sc.stack, f)
			}
		}
	}
	depPool.Put(sc)
	return found
}

// TFOSetIDs returns a SigID-indexed membership slice of the nodes
// transitively depending on signal id (excluding id itself).
func (nw *Network) TFOSetIDs(id SigID) []bool {
	out := make([]bool, nw.sym.Len())
	nw.closeFanout(out, nil, []SigID{id})
	out[id] = false
	return out
}

// SOPLits returns the total SOP literal count over all nodes.
func (nw *Network) SOPLits() int {
	n := 0
	for _, nd := range nw.Nodes() {
		n += nd.Cover.NumLits()
	}
	return n
}

// FactoredLits returns the total factored-form literal count — the paper's
// reported cost metric ("literal counts are in factored form").
func (nw *Network) FactoredLits() int {
	n := 0
	for _, nd := range nw.Nodes() {
		n += algebraic.FactorLits(nd.Cover)
	}
	return n
}

// Levels returns the logic depth of every signal (PIs at 0, each node one
// more than its deepest fanin) and the maximum over the POs.
func (nw *Network) Levels() (map[string]int, int) {
	lv := make([]int, nw.sym.Len())
	out := make(map[string]int, len(nw.order)+len(nw.pis))
	for _, pi := range nw.pis {
		out[nw.sym.Name(pi)] = 0
	}
	for _, id := range nw.TopoOrderIDs() {
		d := 0
		for _, f := range nw.faninIDs[id] {
			if lv[f] >= d {
				d = lv[f] + 1
			}
		}
		if len(nw.faninIDs[id]) == 0 {
			d = 0
		}
		lv[id] = d
		out[nw.sym.Name(id)] = d
	}
	max := 0
	for _, po := range nw.posIDs {
		if lv[po] > max {
			max = lv[po]
		}
	}
	return out, max
}

// String summarizes the network, rendering each node's SOP over its fanin
// signal names.
func (nw *Network) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %s: %d PI, %d PO, %d nodes, %d lits (sop), %d lits (fac)\n",
		nw.Name, len(nw.pis), len(nw.posIDs), nw.NumNodes(), nw.SOPLits(), nw.FactoredLits())
	for _, id := range nw.TopoOrderIDs() {
		n := nw.defs[id]
		fmt.Fprintf(&b, "  %s = %s\n", n.Name, n.Render())
	}
	return b.String()
}

// Render prints the node's cover using its fanin signal names.
func (n *Node) Render() string {
	if n.Cover.IsZero() {
		return "0"
	}
	var terms []string
	for _, c := range n.Cover.Cubes {
		if c.IsUniverse() {
			return "1"
		}
		var t strings.Builder
		for _, v := range c.Lits() {
			if t.Len() > 0 {
				t.WriteByte('*')
			}
			t.WriteString(n.Fanins[v])
			if c.Get(v) == cube.Neg {
				t.WriteByte('\'')
			}
		}
		terms = append(terms, t.String())
	}
	sort.Strings(terms)
	return strings.Join(terms, " + ")
}

// appendOrder makes node id the newest entry of the creation order.
// RemoveNode leaves a removed node's entry in place (iteration skips it),
// so a name re-added after removal — FreshName hands such names out —
// first drops its stale entry. The node is listed once, at the end, where
// an Overlay lists the nodes it adds, and every other node keeps its place.
func (nw *Network) appendOrder(id SigID) {
	if nw.inOrder[id] {
		for i, o := range nw.order {
			if o == id {
				nw.order = append(nw.order[:i], nw.order[i+1:]...)
				break
			}
		}
	}
	nw.inOrder[id] = true
	nw.order = append(nw.order, id)
}

// setNodeFunc installs a new fanin list and cover on node id, keeping the
// name-face and ID-core views in lockstep (a fresh faninIDs slice is built;
// the old one may be shared with clones and is never edited).
func (nw *Network) setNodeFunc(id SigID, n *Node, fanins []string, cover cube.Cover) {
	n.Fanins = fanins
	n.Cover = cover
	nw.unlinkFanouts(id, nw.faninIDs[id])
	nw.faninIDs[id] = nw.internFanins(fanins)
	nw.linkFanouts(id, nw.faninIDs[id])
}

// ReplaceNodeFunction rewrites node name with a new fanin list and cover,
// preserving its name (fanouts are untouched). It refuses changes that would
// create a combinational cycle. Only new fanins need the fanin-cone walk: a
// fanin the node already reads cannot depend on it in an acyclic network.
func (nw *Network) ReplaceNodeFunction(name string, fanins []string, cover cube.Cover) error {
	id, ok := nw.sym.Lookup(name)
	if !ok || nw.defs[id] == nil {
		return fmt.Errorf("network: no node %q", name)
	}
	if cover.NumVars() != len(fanins) {
		return fmt.Errorf("network: cover space mismatch for %q", name)
	}
	for _, f := range fanins {
		if f == name {
			return fmt.Errorf("network: self-loop on %q", name)
		}
		if !slices.Contains(nw.defs[id].Fanins, f) && nw.DependsOn(f, name) {
			return fmt.Errorf("network: fanin %q of %q would create a cycle", f, name)
		}
	}
	nw.replaceFunc(id, fanins, cover)
	return nil
}

// replaceFunc installs a copy of fanins and cover on node id without
// validation and marks id dirty in the signature and cone tables: the
// shared tail of ReplaceNodeFunction and Install.
func (nw *Network) replaceFunc(id SigID, fanins []string, cover cube.Cover) {
	nw.setNodeFunc(id, nw.defs[id], append([]string(nil), fanins...), cover)
	if nw.sigs != nil {
		nw.sigs.markDirty(id)
	}
	if nw.cones != nil {
		nw.cones.markDirty(id)
	}
}

// NormalizeNode drops fanins that no longer appear in the node's cover,
// compacting the variable space.
func (nw *Network) NormalizeNode(name string) {
	id, ok := nw.sym.Lookup(name)
	if !ok || nw.defs[id] == nil {
		return
	}
	n := nw.defs[id]
	fanins, cover := Normalize(n.Fanins, n.Cover)
	if len(fanins) == len(n.Fanins) {
		return
	}
	nw.setNodeFunc(id, n, fanins, cover)
	// Semantically invisible (the function is unchanged, so signatures stay
	// valid) but structurally visible: the cone hash covers the fanin list
	// and cover bytes.
	if nw.cones != nil {
		nw.cones.markDirty(id)
	}
}

// Normalize returns the node function (fanins, cover) without the fanins
// its cover no longer reads, the remaining variables keeping their order.
// When every fanin is read it returns its arguments unchanged; otherwise
// the results are fresh. Network.NormalizeNode and Overlay.NormalizeNode
// apply it to a node, and a planner to a replacement it has not installed.
func Normalize(fanins []string, cover cube.Cover) ([]string, cube.Cover) {
	used := cover.Support()
	if len(used) == len(fanins) {
		return fanins, cover
	}
	idx := make(map[int]int, len(used))
	newFanins := make([]string, 0, len(used))
	for newV, oldV := range used {
		idx[oldV] = newV
		newFanins = append(newFanins, fanins[oldV])
	}
	nc := cube.NewCover(len(used))
	for _, c := range cover.Cubes {
		k := cube.New(len(used))
		for _, v := range c.Lits() {
			k.Set(idx[v], c.Get(v))
		}
		nc.Add(k)
	}
	return newFanins, nc
}

// Install commits recorded node bodies to nw: each added node is created
// in order, appended to the creation order, and then each replaced node
// takes its body's fanins and cover in place, in order, so a replacement
// may read an addition. It is the one way recorded bodies reach a network:
// the substitution engine's commit of a plan, and Overlay.Clone. Bodies
// install without a cycle check: their producer refused every cycle on its
// own view (an overlay checks each mutation, a node-form planner its
// divisor), and checking each body against a half-installed set can refuse
// a valid one. Fanin lists are copied; covers are kept, so the caller must
// not mutate them afterwards. A replaced name that drives no node panics:
// the bodies were recorded against another network.
func (nw *Network) Install(added, replaced []*Node) {
	for _, n := range added {
		nw.AddNode(n.Name, n.Fanins, n.Cover)
	}
	for _, n := range replaced {
		id, ok := nw.sym.Lookup(n.Name)
		if !ok || nw.defs[id] == nil {
			panic(fmt.Sprintf("network: install: no node %q", n.Name))
		}
		nw.replaceFunc(id, n.Fanins, n.Cover)
	}
}

// SetNodeCover replaces node name's cover in place, keeping its fanin list.
// The cover's variable space must match the fanin count — this is the RAR
// extraction seam, where redundancy removal only deletes literals.
func (nw *Network) SetNodeCover(name string, cover cube.Cover) {
	id, ok := nw.sym.Lookup(name)
	if !ok || nw.defs[id] == nil {
		panic(fmt.Sprintf("network: no node %q", name))
	}
	n := nw.defs[id]
	if cover.NumVars() != len(n.Fanins) {
		panic(fmt.Sprintf("network: cover space mismatch for %q", name))
	}
	n.Cover = cover
	if nw.sigs != nil {
		nw.sigs.markDirty(id)
	}
	if nw.cones != nil {
		nw.cones.markDirty(id)
	}
}

// FreshName generates an unused signal name with the given prefix. It is a
// pure probe (nothing is reserved or interned), so it is part of the Reader
// surface.
func (nw *Network) FreshName(prefix string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		id, ok := nw.sym.Lookup(name)
		if !ok || (nw.defs[id] == nil && !nw.piMark[id]) {
			return name
		}
	}
}

// SortedNodeNames returns node names sorted lexicographically (stable
// iteration for tests).
func (nw *Network) SortedNodeNames() []string {
	out := make([]string, 0, len(nw.order))
	for _, id := range nw.order {
		if nw.defs[id] != nil {
			out = append(out, nw.sym.Name(id))
		}
	}
	sort.Strings(out)
	return out
}
