// Package netlist provides the gate-level view the paper's RAR machinery
// operates on. Every network node is decomposed into the canonical
// two-level structure the paper assumes: one AND gate per cube (possibly
// with a single input) feeding one OR gate per node (possibly with a single
// input), with cached inverters for complemented literals. The netlist is
// mutable — the division algorithm adds the "bold AND" gate and deletes
// pins proved redundant — and supports bit-parallel evaluation for tests.
package netlist

import (
	"fmt"
	"slices"

	"repro/internal/cube"
	"repro/internal/network"
)

// Kind enumerates gate types.
type Kind uint8

const (
	// Input is a primary input (no fanins).
	Input Kind = iota
	// And outputs the conjunction of its fanins (1 when it has none).
	And
	// Or outputs the disjunction of its fanins (0 when it has none).
	Or
	// Not inverts its single fanin.
	Not
)

// String names the gate kind.
func (k Kind) String() string {
	switch k {
	case Input:
		return "input"
	case And:
		return "and"
	case Or:
		return "or"
	default:
		return "not"
	}
}

type gate struct {
	kind    Kind
	fanins  []int
	fanouts []int
	name    string // signal name for node outputs and PIs, else ""
}

// Netlist is a mutable gate-level circuit.
type Netlist struct {
	gates []gate
	// Signal maps a network signal name to the gate producing it.
	//bdslint:ignore idmap name→gate boundary read on every RAR pass (PatchNode, rarPass, extractNode): a trial's patched nodes, such as a decomposition's core, have no SigID in the network, so fanins and the divisor resolve by name; the ATPG and test drivers address signals by BLIF name too
	Signal map[string]int
	// POs are the output gate ids, parallel to PONames.
	POs     []int
	PONames []string
	// inverter cache: gate id -> NOT gate id
	inv map[int]int
	// isPO marks gates that are directly observable (primary outputs); the
	// dominator walk must stop there.
	isPO map[int]bool
	// transaction journal (see tx.go): when txOn, every structural mutation
	// appends an undo record.
	tx   []txOp
	txOn bool
	// patched holds the NodeGates PatchNode hands out and the cube-gate
	// lists they point into, released with the transaction's journal.
	patched gateArena
	// gen is the build generation (see Generation) and edited its edit log
	// (see Edited).
	gen    uint64
	edited []int
}

// NodeGates records the two-level structure built for one network node.
// The pins of each cube gate carry the cube's literals in ascending
// variable order.
type NodeGates struct {
	// Out is the node's OR gate.
	Out int
	// Cubes holds one AND gate per cube, in cover order.
	Cubes []int
}

// New returns an empty netlist.
func New() *Netlist {
	//bdslint:ignore idmap constructs the exported Signal boundary map (see the field); one allocation per netlist
	return &Netlist{Signal: make(map[string]int), inv: make(map[int]int), isPO: make(map[int]bool)}
}

// MarkPO flags gate g as directly observable.
func (nl *Netlist) MarkPO(g int) { nl.isPO[g] = true }

// IsPO reports whether gate g is directly observable.
func (nl *Netlist) IsPO(g int) bool { return nl.isPO[g] }

// NumGates returns the number of gates ever created (ids are dense).
func (nl *Netlist) NumGates() int { return len(nl.gates) }

// KindOf returns gate g's kind.
func (nl *Netlist) KindOf(g int) Kind { return nl.gates[g].kind }

// NameOf returns the signal name attached to gate g ("" if none).
func (nl *Netlist) NameOf(g int) string { return nl.gates[g].name }

// Fanins returns gate g's fanin gate ids (do not modify).
func (nl *Netlist) Fanins(g int) []int { return nl.gates[g].fanins }

// Fanouts returns gate g's fanout gate ids (do not modify).
func (nl *Netlist) Fanouts(g int) []int { return nl.gates[g].fanouts }

// Generation returns the netlist's build generation. Reset advances it, and
// so does an edit log outgrowing the gate count. Within one generation gate
// ids are never rebound silently: a gate whose fanin list changes, or that a
// rolled-back AddGate removes, is logged in Edited.
func (nl *Netlist) Generation() uint64 { return nl.gen }

// Edited returns the current generation's edit log (do not modify): every
// gate whose fanin list changed — through AddPin, RemovePin or the rollback
// of either — and every gate a rolled-back AddGate removed, in edit order,
// repeats included. A gate AddGate creates is not logged. The log only
// grows within a generation, so a reader that remembers the generation and
// the log length it has seen can catch up on exactly the edits since.
func (nl *Netlist) Edited() []int { return nl.edited }

// logEdit appends g to the edit log. A log that would outgrow the gate
// count starts a new generation instead, so the log stays O(gates) however
// many trials patch and roll back one build. A full log grows to twice the
// gate count in one step, so a build that patches and rolls back a few
// gates at a time logs without allocating after its first growth.
//
//bdslint:hotpath
func (nl *Netlist) logEdit(g int) {
	if len(nl.edited) >= len(nl.gates) {
		nl.edited = nl.edited[:0]
		nl.gen++
		return
	}
	if len(nl.edited) == cap(nl.edited) {
		nl.edited = slices.Grow(nl.edited, 2*len(nl.gates)-len(nl.edited))
	}
	nl.edited = append(nl.edited, g)
}

// AddGate creates a gate and wires its fanins, returning its id. When the
// netlist was Reset, the gate slot (including its fanin/fanout arrays) is
// reclaimed from the previous build instead of reallocated.
func (nl *Netlist) AddGate(k Kind, fanins ...int) int {
	id := len(nl.gates)
	if id < cap(nl.gates) {
		// Reuse the retired gate's slice capacity (arena reset, not realloc).
		nl.gates = nl.gates[:id+1]
		g := &nl.gates[id]
		g.kind = k
		g.name = ""
		g.fanins = append(g.fanins[:0], fanins...)
		g.fanouts = g.fanouts[:0]
	} else {
		nl.gates = append(nl.gates, gate{kind: k, fanins: append([]int(nil), fanins...)})
	}
	for _, f := range fanins {
		nl.gates[f].fanouts = append(nl.gates[f].fanouts, id)
	}
	if nl.txOn {
		nl.tx = append(nl.tx, txOp{kind: txAddGate, g: id})
	}
	return id
}

// Reset empties the netlist for rebuilding while keeping every allocation:
// the gate arena (with per-gate fanin/fanout arrays), the signal and
// inverter maps, and the PO lists are cleared in place. A Reset netlist is
// observationally identical to a New one, except that it starts a new
// Generation.
func (nl *Netlist) Reset() {
	if nl.txOn {
		panic("netlist: Reset during an open transaction")
	}
	nl.gen++
	nl.edited = nl.edited[:0]
	nl.gates = nl.gates[:0]
	clear(nl.Signal)
	clear(nl.inv)
	clear(nl.isPO)
	nl.POs = nl.POs[:0]
	nl.PONames = nl.PONames[:0]
}

// AddInput creates a primary-input gate bound to a signal name.
func (nl *Netlist) AddInput(name string) int {
	id := nl.AddGate(Input)
	nl.gates[id].name = name
	nl.Signal[name] = id
	return id
}

// Invert returns a NOT gate over g, reusing a cached one when present.
func (nl *Netlist) Invert(g int) int {
	if n, ok := nl.inv[g]; ok {
		return n
	}
	n := nl.AddGate(Not, g)
	nl.inv[g] = n
	if nl.txOn {
		nl.tx = append(nl.tx, txOp{kind: txInvert, g: g})
	}
	return n
}

// RemovePin deletes fanin pin idx of gate g (the RAR wire removal).
func (nl *Netlist) RemovePin(g, idx int) {
	f := nl.gates[g].fanins[idx]
	nl.gates[g].fanins = append(nl.gates[g].fanins[:idx], nl.gates[g].fanins[idx+1:]...)
	nl.logEdit(g)
	// Remove one fanout entry of f pointing at g.
	fo := nl.gates[f].fanouts
	for i, x := range fo {
		if x == g {
			if nl.txOn {
				nl.tx = append(nl.tx, txOp{kind: txRemovePin, g: g, pin: idx, src: f, foIdx: i})
			}
			nl.gates[f].fanouts = append(fo[:i], fo[i+1:]...)
			break
		}
	}
}

// AddPin appends src as a new fanin of gate g, returning its pin index.
func (nl *Netlist) AddPin(g, src int) int {
	nl.gates[g].fanins = append(nl.gates[g].fanins, src)
	nl.gates[src].fanouts = append(nl.gates[src].fanouts, g)
	nl.logEdit(g)
	if nl.txOn {
		nl.tx = append(nl.tx, txOp{kind: txAddPin, g: g})
	}
	return len(nl.gates[g].fanins) - 1
}

// gateArena bump-allocates NodeGates records and their cube-gate lists for
// the netlist layer's builders, so building a node allocates nothing once
// the arena has grown to size. A record or list handed out stays valid
// until reset: a regrowth leaves the earlier ones on the old backing, where
// they stay valid and unchanged, since a record is complete before the
// next one is started.
type gateArena struct {
	ngs   []NodeGates
	cubes []int
}

// reset releases every record and list handed out.
func (a *gateArena) reset() {
	a.ngs = a.ngs[:0]
	a.cubes = a.cubes[:0]
}

// node returns a fresh record whose Cubes list the caller fills with
// addCube and closes with done.
//
//bdslint:hotpath
func (a *gateArena) node() *NodeGates {
	a.ngs = append(a.ngs, NodeGates{})
	ng := &a.ngs[len(a.ngs)-1]
	top := len(a.cubes)
	ng.Cubes = a.cubes[top:top:top]
	return ng
}

// addCube appends cube gate g to ng, the record node returned last.
//
//bdslint:hotpath
func (a *gateArena) addCube(ng *NodeGates, g int) {
	start := len(a.cubes) - len(ng.Cubes)
	a.cubes = append(a.cubes, g)
	ng.Cubes = a.cubes[start:len(a.cubes):len(a.cubes)]
}

// Builder state tying a netlist to the network it came from.
type Build struct {
	NL *Netlist
	// Nodes maps node name to its two-level structure.
	//bdslint:ignore idmap name→structure boundary PatchNode writes and appendNodeScope and extractNode read on every RAR pass: a trial's patched nodes, such as a decomposition's core, have no SigID in the network; cmd/bdsbench compiles against Build.Nodes
	Nodes map[string]*NodeGates
	// fan is the cube-gate fanin buffer PatchNode reuses across calls.
	fan []int
}

// FromNetwork decomposes the whole network. Node order follows TopoOrder,
// so every fanin gate exists before use. Each call allocates fresh
// structures; hot loops that rebuild netlists repeatedly (one per division
// trial) should hold a Builder and call Build instead.
func FromNetwork(nw network.Reader) *Build {
	return NewBuilder().Build(nw)
}

// Builder rebuilds netlists from networks while recycling all scratch
// memory between builds: the gate arena, per-gate fanin/fanout arrays, the
// name/inverter maps, and the SigID-indexed signal→gate arena survive from
// one Build call to the next. A Builder is owned by exactly one worker at a
// time — it is not safe for concurrent use, and a Build result is
// invalidated by the next Build call on the same Builder.
type Builder struct {
	build Build
	// sigGate[id] is the gate driving network signal id in the CURRENT build
	// (valid only where sigEpoch[id] == epoch). The epoch tag makes per-build
	// invalidation O(1) instead of an O(signals) clear, and the dense-ID
	// index replaces the per-literal name-map lookup on the hot path — the
	// Signal map is kept for the name-keyed consumers at the boundary.
	sigGate  []int32
	sigEpoch []uint32
	epoch    uint32
	// ins and outs are Build's primary-input and primary-output ID lists.
	ins, outs []network.SigID
	// gates holds the current build's NodeGates records.
	gates gateArena
}

// NewBuilder returns an empty Builder ready for its first Build call.
func NewBuilder() *Builder { return &Builder{} }

// setGate binds signal id to gate g for the current build.
func (b *Builder) setGate(id network.SigID, g int) {
	for int(id) >= len(b.sigGate) {
		b.sigGate = append(b.sigGate, 0)
		b.sigEpoch = append(b.sigEpoch, 0)
	}
	b.sigGate[id] = int32(g)
	b.sigEpoch[id] = b.epoch
}

// bound reports whether signal id has a gate in the current build.
func (b *Builder) bound(id network.SigID) bool {
	return int(id) < len(b.sigEpoch) && b.sigEpoch[id] == b.epoch
}

// gateAt resolves signal id to its gate in the current build. An unbound id
// (undriven fanin) resolves to gate 0, matching the historical missing-map
// read.
func (b *Builder) gateAt(id network.SigID) int {
	if b.bound(id) {
		return int(b.sigGate[id])
	}
	return 0
}

// Build decomposes the network into the canonical two-level netlist exactly
// like FromNetwork, reusing the arenas of the previous Build: BuildRegion
// over the primary inputs, every node in TopoOrderIDs order and the
// primary outputs. The returned Build aliases the Builder's internal state:
// it remains valid only until the next Build call.
func (b *Builder) Build(nw network.Reader) *Build {
	b.ins = appendIDs(b.ins[:0], nw, nw.PIs())
	b.outs = appendIDs(b.outs[:0], nw, nw.POs())
	return b.BuildRegion(nw, b.ins, nw.TopoOrderIDs(), b.outs)
}

// appendIDs appends the IDs of the named signals to dst.
func appendIDs(dst []network.SigID, nw network.Reader, names []string) []network.SigID {
	for _, name := range names {
		id, ok := nw.IDOf(name)
		if !ok {
			panic(fmt.Sprintf("netlist: signal %q has no ID", name))
		}
		dst = append(dst, id)
	}
	return dst
}

// BuildRegion decomposes part of nw into the canonical two-level netlist:
// one input gate per signal of ins, in list order; then the two-level
// structure of each node of nodes, in list order, which must put every
// node after the nodes among its fanins; then the signals of outs, in
// order, as primary outputs. The gates are those a Build of a network
// holding exactly that region would create, in the same order, so a
// region carved out of a larger network needs no copy of its nodes. Like
// Build it reuses the Builder's arenas, and its result is valid until the
// next build.
func (b *Builder) BuildRegion(nw network.Reader, ins, nodes, outs []network.SigID) *Build {
	if b.build.NL == nil {
		b.build.NL = New()
		//bdslint:ignore idmap constructs the exported Nodes boundary map (see the field); first Build only, cleared and reused afterwards
		b.build.Nodes = make(map[string]*NodeGates)
	} else {
		b.build.NL.Reset()
		clear(b.build.Nodes)
	}
	b.gates.reset()
	b.epoch++
	if b.epoch == 0 { // wraparound: stale tags could collide, reset them all
		clear(b.sigEpoch)
		b.epoch = 1
	}
	nl := b.build.NL
	for _, id := range ins {
		b.setGate(id, nl.AddInput(nw.SigName(id)))
	}
	for _, id := range nodes {
		n := nw.NodeByID(id)
		ng := b.buildNode(n, nw.FaninIDsOf(id))
		nl.gates[ng.Out].name = n.Name
		nl.Signal[n.Name] = ng.Out
		b.build.Nodes[n.Name] = ng
		b.setGate(id, ng.Out)
	}
	for _, id := range outs {
		if !b.bound(id) {
			panic(fmt.Sprintf("netlist: PO %q has no driver", nw.SigName(id)))
		}
		g := b.gateAt(id)
		nl.POs = append(nl.POs, g)
		nl.PONames = append(nl.PONames, nw.SigName(id))
		nl.isPO[g] = true
	}
	return &b.build
}

// buildNode creates the canonical AND-OR structure for one node, resolving
// fanins through the dense-ID arena (fids is parallel to n.Fanins). Its
// record comes from the builder's gate arena.
//
//bdslint:hotpath
func (b *Builder) buildNode(n *network.Node, fids []network.SigID) *NodeGates {
	nl := b.build.NL
	ng := b.gates.node()
	for _, c := range n.Cover.Cubes {
		fan := b.build.fan[:0]
		for v := 0; v < c.NumVars(); v++ {
			switch c.Get(v) {
			case cube.Pos:
				fan = append(fan, b.gateAt(fids[v]))
			case cube.Neg:
				fan = append(fan, nl.Invert(b.gateAt(fids[v])))
			}
		}
		b.build.fan = fan
		b.gates.addCube(ng, nl.AddGate(And, fan...))
	}
	ng.Out = nl.AddGate(Or, ng.Cubes...)
	return ng
}

// Eval evaluates the netlist bit-parallel: in maps input gate names to
// 64-pattern words; the result maps every gate id to its word. Gates form a
// DAG by construction (fanins have smaller... not guaranteed after edits),
// so evaluation is memoized recursively.
func (nl *Netlist) Eval(in map[string]uint64) []uint64 {
	val := make([]uint64, len(nl.gates))
	done := make([]bool, len(nl.gates))
	var eval func(int) uint64
	eval = func(g int) uint64 {
		if done[g] {
			return val[g]
		}
		done[g] = true // DAG: safe to mark before recursion
		gt := &nl.gates[g]
		var w uint64
		switch gt.kind {
		case Input:
			w = in[gt.name]
		case And:
			w = ^uint64(0)
			for _, f := range gt.fanins {
				w &= eval(f)
			}
		case Or:
			w = 0
			for _, f := range gt.fanins {
				w |= eval(f)
			}
		case Not:
			w = ^eval(gt.fanins[0])
		}
		val[g] = w
		return w
	}
	for g := range nl.gates {
		eval(g)
	}
	return val
}

// EvalWithFault evaluates the netlist like Eval but with fanin pin of
// gate faultGate at index faultPin stuck at the given value (bit-parallel:
// stuck=true reads all-ones). Used by fault simulation and by the tests
// that cross-check untestability proofs.
func (nl *Netlist) EvalWithFault(in map[string]uint64, faultGate, faultPin int, stuck bool) []uint64 {
	val := make([]uint64, len(nl.gates))
	done := make([]bool, len(nl.gates))
	var sv uint64
	if stuck {
		sv = ^uint64(0)
	}
	var eval func(int) uint64
	eval = func(g int) uint64 {
		if done[g] {
			return val[g]
		}
		done[g] = true
		gt := &nl.gates[g]
		pin := func(i int) uint64 {
			if g == faultGate && i == faultPin {
				return sv
			}
			return eval(gt.fanins[i])
		}
		var w uint64
		switch gt.kind {
		case Input:
			w = in[gt.name]
		case And:
			w = ^uint64(0)
			for i := range gt.fanins {
				w &= pin(i)
			}
		case Or:
			w = 0
			for i := range gt.fanins {
				w |= pin(i)
			}
		case Not:
			w = ^pin(0)
		}
		val[g] = w
		return w
	}
	for g := range nl.gates {
		eval(g)
	}
	return val
}

// TFO returns the set of gates in the transitive fanout of g, including g.
func (nl *Netlist) TFO(g int) map[int]bool {
	out := map[int]bool{g: true}
	stack := []int{g}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range nl.gates[x].fanouts {
			if !out[fo] {
				out[fo] = true
				stack = append(stack, fo)
			}
		}
	}
	return out
}

// TFI returns the set of gates in the transitive fanin of g, including g.
func (nl *Netlist) TFI(g int) map[int]bool {
	out := map[int]bool{g: true}
	stack := []int{g}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fi := range nl.gates[x].fanins {
			if !out[fi] {
				out[fi] = true
				stack = append(stack, fi)
			}
		}
	}
	return out
}

// Dominators walks the fanout-free chain from gate g toward the outputs:
// while the current gate has exactly one fanout and is not itself a primary
// output, that fanout is a dominator. The walk stops at multi-fanout stems
// and at PO gates — a PO is directly observable, so no propagation
// requirement beyond it is sound. The returned list starts with the first
// gate after g.
func (nl *Netlist) Dominators(g int) []int {
	var out []int
	cur := g
	for {
		if nl.isPO[cur] {
			return out
		}
		fo := nl.gates[cur].fanouts
		if len(fo) != 1 {
			return out
		}
		cur = fo[0]
		out = append(out, cur)
	}
}
