package network

import (
	"fmt"
	"slices"

	"repro/internal/cube"
)

// Overlay is a copy-on-write editing view over a Reader: node replacements
// and additions are recorded in a private delta while every untouched node
// reads through to the base. It satisfies Reader itself, so the division
// machinery (netlist building, dependency walks, a nested division) runs on
// an overlay exactly as it would on a deep clone — but creating one is
// O(1), mutating it is O(touched nodes), and discarding it is free.
// Committing installs the delta (Added/Changed, through Network.Install)
// instead of copying the network back. The engine uses one where a trial
// needs a working network: extended division's divisor decomposition, and
// GDC trials, which rebuild their netlist from the working copy every
// pass. Overlays never delete nodes.
//
// Result invisibility is the design contract: every read an Overlay answers
// is byte-identical to the same read on base.Clone() with the same mutations
// applied — node identity, iteration order (replaced nodes keep their base
// creation-order slot, added nodes append), the TopoOrderIDs visiting
// sequence, and FreshName probes. FuzzOverlayReadEquivalence locks this
// down against the materialized clone.
//
// ID space: the overlay shares its base's dense SigIDs for every base
// signal and extends the space with overlay-local IDs (baseN, baseN+1, …)
// for names it introduces. Extension IDs are assigned only by the mutating
// entry points — reads are pure, so overlays stack: an overlay over an
// overlay snapshots a base ID space that cannot grow underneath it. The
// delta itself stays a tiny name-keyed map: a trial touches a handful of
// nodes, so a per-overlay O(baseN) slot array would cost more to allocate
// than the trial's edits.
//
// An Overlay is owned by a single goroutine; concurrent overlays over one
// shared base are safe because their deltas (and extension symbol tables)
// are private and base reads are pure.
type Overlay struct {
	base Reader
	// baseN is the base ID-space size captured at creation; IDs below it are
	// base IDs, IDs at or above it are overlay-local extensions.
	baseN int
	// nodes holds the delta bodies: each entry replaces (or adds) the node.
	//bdslint:ignore idmap deliberate name-keyed delta: a trial touches a handful of nodes, so a per-overlay O(baseN) SigID array would cost more to allocate than the edits it records
	nodes map[string]*Node
	// added lists names created on the overlay, in creation order (the order
	// a clone's AddNode calls would append them to the network's order).
	added []string
	// changed lists base node names the overlay replaced, in first-touch
	// order (deterministic delta extraction without map ranging).
	changed []string
	// extNames/extByName are the overlay-local extension symbol table:
	// extNames[k] has ID baseN+k.
	extNames []string
	//bdslint:ignore idmap the overlay-local symbol table IS the name→ID boundary for extension signals, mirroring SymTab.byName; it holds at most the few names one trial introduces
	extByName map[string]SigID
	// edits counts the mutations recorded on the overlay (see Version).
	edits uint64
}

// NewOverlay returns an empty copy-on-write view over base.
func NewOverlay(base Reader) *Overlay {
	//bdslint:ignore idmap allocates the name-keyed delta the Overlay doc comment justifies; O(1) per overlay, sized by touched nodes only
	return &Overlay{base: base, baseN: base.NumSigs(), nodes: make(map[string]*Node)}
}

// NetName returns the base network's name.
func (o *Overlay) NetName() string { return o.base.NetName() }

// Node returns the node driving name under the overlay: the delta body when
// touched, the base node otherwise.
//
//bdslint:hotpath
func (o *Overlay) Node(name string) *Node {
	if n, ok := o.nodes[name]; ok {
		return n
	}
	return o.base.Node(name)
}

// Version returns the base's version plus the number of edits recorded on
// the overlay, so it advances with every overlay mutation and every base
// edit.
func (o *Overlay) Version() uint64 { return o.base.Version() + o.edits }

// PIs returns the base primary inputs (overlays never change the interface).
func (o *Overlay) PIs() []string { return o.base.PIs() }

// POs returns the base primary outputs.
func (o *Overlay) POs() []string { return o.base.POs() }

// IsPI reports whether name is a primary input of the base.
func (o *Overlay) IsPI(name string) bool { return o.base.IsPI(name) }

// --- Dense-ID surface ---------------------------------------------------

// internName returns name's ID, extending the overlay-local space on first
// sight of a name the base has never interned. Called ONLY from the
// mutating entry points (AddNode, ReplaceNodeFunction): the ID space must
// be stable during reads, because another overlay stacked on top of this
// one snapshots NumSigs at creation — a read that grew the base's space
// would collide with the upper overlay's extension IDs.
func (o *Overlay) internName(name string) SigID {
	if id, ok := o.base.IDOf(name); ok {
		return id
	}
	if id, ok := o.extByName[name]; ok {
		return id
	}
	if o.extByName == nil {
		//bdslint:ignore idmap lazy allocation of the overlay-local symbol table (see the field's justification)
		o.extByName = make(map[string]SigID)
	}
	id := SigID(o.baseN + len(o.extNames))
	o.extNames = append(o.extNames, name)
	o.extByName[name] = id
	return id
}

// idOf resolves name without interning (the pure read-path counterpart of
// internName); NoSig when the name has never been seen.
//
//bdslint:hotpath
func (o *Overlay) idOf(name string) SigID {
	if id, ok := o.base.IDOf(name); ok {
		return id
	}
	if id, ok := o.extByName[name]; ok {
		return id
	}
	return NoSig
}

// NumSigs returns the extended ID-space size (base plus overlay-local).
func (o *Overlay) NumSigs() int { return o.baseN + len(o.extNames) }

// IDOf returns the dense ID of name: the base's when it knows the name, the
// overlay-local extension otherwise.
//
//bdslint:hotpath
func (o *Overlay) IDOf(name string) (SigID, bool) {
	if id, ok := o.base.IDOf(name); ok {
		return id, true
	}
	id, ok := o.extByName[name]
	return id, ok
}

// SigName returns the name bound to id.
//
//bdslint:hotpath
func (o *Overlay) SigName(id SigID) string {
	if int(id) < o.baseN {
		return o.base.SigName(id)
	}
	return o.extNames[int(id)-o.baseN]
}

// NodeByID returns the node driving signal id under the overlay.
//
//bdslint:hotpath
func (o *Overlay) NodeByID(id SigID) *Node {
	if int(id) < o.baseN {
		if n, ok := o.nodes[o.base.SigName(id)]; ok {
			return n
		}
		return o.base.NodeByID(id)
	}
	k := int(id) - o.baseN
	if k < len(o.extNames) {
		return o.nodes[o.extNames[k]]
	}
	return nil
}

// FaninIDsOf returns node id's fanin IDs under the overlay. Untouched base
// nodes share the base's slice (allocation-free, the common case); delta
// bodies intern on demand.
//
//bdslint:hotpath
func (o *Overlay) FaninIDsOf(id SigID) []SigID {
	if int(id) < o.baseN {
		if _, touched := o.nodes[o.base.SigName(id)]; !touched {
			return o.base.FaninIDsOf(id)
		}
	}
	n := o.NodeByID(id)
	if n == nil {
		return nil
	}
	//bdslint:ignore hotalloc touched-delta path only: untouched base nodes returned the shared base slice above; a trial touches a handful of nodes
	ids := make([]SigID, len(n.Fanins))
	for i, f := range n.Fanins {
		id := o.idOf(f)
		if id == NoSig {
			//bdslint:ignore hotalloc panic message on the invariant-violation path only — the mutating entry points intern every fanin, so this never executes
			panic(fmt.Sprintf("network: overlay fanin %q was never interned", f))
		}
		ids[i] = id
	}
	return ids
}

// Nodes returns all nodes in deterministic order: the base's creation order
// with replacements substituted, then the overlay's additions in creation
// order — exactly the order a mutated clone would report.
func (o *Overlay) Nodes() []*Node {
	base := o.base.Nodes()
	out := make([]*Node, 0, len(base)+len(o.added))
	for _, n := range base {
		if d, ok := o.nodes[n.Name]; ok {
			n = d
		}
		out = append(out, n)
	}
	for _, name := range o.added {
		out = append(out, o.nodes[name])
	}
	return out
}

// TopoOrderIDs returns node IDs in topological order, mirroring
// Network.TopoOrderIDs over the overlay view (same visiting sequence as a
// mutated clone, panicking on a combinational cycle).
func (o *Overlay) TopoOrderIDs() []SigID {
	// SigID-indexed DFS marks: every signal with a driving node is interned
	// (mutating entry points intern their fanins), so the dense slice
	// replaces a name-keyed map that rehashed every visit. For a full-
	// network overlay the walk touches most of the ID space anyway, so the
	// O(NumSigs) slice is also the cheaper allocation.
	state := make([]uint8, o.NumSigs()) // 0 unvisited, 1 visiting, 2 done
	var out []SigID
	var visit func(string)
	visit = func(s string) {
		if o.IsPI(s) {
			return
		}
		n := o.Node(s)
		if n == nil {
			return
		}
		id := o.idOf(s)
		if id == NoSig {
			panic(fmt.Sprintf("network: overlay node %q was never interned", s))
		}
		switch state[id] {
		case 1:
			panic("network: combinational cycle at " + s)
		case 2:
			return
		}
		state[id] = 1
		for _, f := range n.Fanins {
			visit(f)
		}
		state[id] = 2
		out = append(out, id)
	}
	for _, n := range o.base.Nodes() {
		visit(n.Name)
	}
	for _, name := range o.added {
		visit(name)
	}
	return out
}

// DependsOn reports whether signal a transitively depends on signal b under
// the overlay.
func (o *Overlay) DependsOn(a, b string) bool {
	if a == b {
		return true
	}
	// SigID-indexed visited marks (see TopoOrderIDs): the walk only marks
	// signals it recurses through, all of which have driving nodes and are
	// therefore interned.
	seen := make([]bool, o.NumSigs())
	var walk func(string) bool
	walk = func(s string) bool {
		if s == b {
			return true
		}
		if id := o.idOf(s); id != NoSig {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		n := o.Node(s)
		if n == nil {
			return false
		}
		for _, f := range n.Fanins {
			if walk(f) {
				return true
			}
		}
		return false
	}
	return walk(a)
}

// FreshName generates an unused signal name with the given prefix against
// the overlay's name space, exactly as a mutated clone would.
func (o *Overlay) FreshName(prefix string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if o.Node(name) == nil && !o.IsPI(name) {
			return name
		}
	}
}

// Clone materializes the overlay into a private *Network: a clone of the
// base with copies of the delta bodies installed (Network.Install) —
// byte-identical (node bodies and creation order included) to cloning the
// base first and replaying the overlay's mutations on the clone.
func (o *Overlay) Clone() *Network {
	added, changed := o.Added(), o.Changed()
	for _, ns := range [][]*Node{added, changed} {
		for i, n := range ns {
			ns[i] = n.Clone()
		}
	}
	c := o.base.Clone()
	c.Install(added, changed)
	return c
}

// touch registers name as a modified base node (first touch only) and
// returns the delta body to mutate, copying the base node on first touch.
func (o *Overlay) touch(name string) *Node {
	if n, ok := o.nodes[name]; ok {
		return n
	}
	n := o.base.Node(name).Clone()
	o.nodes[name] = n
	o.changed = append(o.changed, name)
	return n
}

// AddNode installs a new node on the overlay, with Network.AddNode's
// validation (duplicate signals, repeated fanins, cover space).
func (o *Overlay) AddNode(name string, fanins []string, cover cube.Cover) *Node {
	if cover.NumVars() != len(fanins) {
		panic(fmt.Sprintf("network: node %q cover space %d != fanins %d", name, cover.NumVars(), len(fanins)))
	}
	if o.Node(name) != nil || o.IsPI(name) {
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
	o.nodes[name] = n
	o.added = append(o.added, name)
	o.internName(name)
	for _, f := range fanins {
		o.internName(f)
	}
	o.edits++
	return n
}

// ReplaceNodeFunction rewrites node name on the overlay with a new fanin
// list and cover, with Network.ReplaceNodeFunction's cycle refusal evaluated
// against the overlay view (a fanin the node already reads skips the walk
// there too).
func (o *Overlay) ReplaceNodeFunction(name string, fanins []string, cover cube.Cover) error {
	old := o.Node(name)
	if old == nil {
		return fmt.Errorf("network: no node %q", name)
	}
	if cover.NumVars() != len(fanins) {
		return fmt.Errorf("network: cover space mismatch for %q", name)
	}
	for _, f := range fanins {
		if f == name {
			return fmt.Errorf("network: self-loop on %q", name)
		}
		if !slices.Contains(old.Fanins, f) && o.DependsOn(f, name) {
			return fmt.Errorf("network: fanin %q of %q would create a cycle", f, name)
		}
	}
	n := o.touch(name)
	n.Fanins = append([]string(nil), fanins...)
	n.Cover = cover
	for _, f := range fanins {
		o.internName(f)
	}
	o.edits++
	return nil
}

// SetNodeCover replaces node name's cover in place, keeping its fanin list
// (the RAR extraction step: redundancy removal only deletes literals, so the
// variable space is unchanged).
func (o *Overlay) SetNodeCover(name string, cover cube.Cover) {
	n := o.Node(name)
	if n == nil {
		panic(fmt.Sprintf("network: no node %q", name))
	}
	if cover.NumVars() != len(n.Fanins) {
		panic(fmt.Sprintf("network: cover space mismatch for %q", name))
	}
	o.touch(name).Cover = cover
	o.edits++
}

// NormalizeNode drops fanins that no longer appear in node name's cover,
// mirroring Network.NormalizeNode on the overlay view.
func (o *Overlay) NormalizeNode(name string) {
	n := o.Node(name)
	if n == nil {
		return
	}
	fanins, cover := Normalize(n.Fanins, n.Cover)
	if len(fanins) == len(n.Fanins) {
		return
	}
	t := o.touch(name)
	t.Fanins = fanins
	t.Cover = cover
	o.edits++
}

// Added returns the nodes created on the overlay, in creation order. The
// returned nodes are the overlay's own delta bodies (the overlay is
// discarded after delta extraction).
func (o *Overlay) Added() []*Node {
	out := make([]*Node, len(o.added))
	for i, name := range o.added {
		out[i] = o.nodes[name]
	}
	return out
}

// Changed returns the base nodes the overlay replaced, in first-touch
// order.
func (o *Overlay) Changed() []*Node {
	out := make([]*Node, len(o.changed))
	for i, name := range o.changed {
		out[i] = o.nodes[name]
	}
	return out
}

// compile-time check: *Overlay is a Reader.
var _ Reader = (*Overlay)(nil)
