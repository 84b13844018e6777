// Netlist transactions: a primitive-operation journal that lets the RAR
// machinery patch a tentative node rewrite into a shared base netlist, run
// implication passes on it, and roll the netlist back byte-exactly — gate
// arena length, fanin/fanout list contents *and positions*, and the inverter
// cache all restored — instead of rebuilding the whole netlist per trial.
package netlist

import (
	"fmt"

	"repro/internal/cube"
	"repro/internal/network"
)

type txKind uint8

const (
	txAddGate txKind = iota
	txAddPin
	txRemovePin
	txInvert
)

// txOp is one journaled primitive. Field use by kind:
//
//	txAddGate:   g = the created gate id (always the top of the arena when
//	             undone, by LIFO order)
//	txAddPin:    g = the gate that gained a pin (the pin is its last fanin
//	             when undone)
//	txRemovePin: g = the gate that lost fanin index pin; src = the fanin
//	             gate; foIdx = src's fanout-list index that pointed at g
//	txInvert:    g = the source gate whose inverter-cache entry was created
type txOp struct {
	kind  txKind
	g     int
	pin   int
	src   int
	foIdx int
}

// BeginTx starts journaling mutations. Transactions do not nest.
func (nl *Netlist) BeginTx() {
	if nl.txOn {
		panic("netlist: nested BeginTx")
	}
	nl.txOn = true
}

// RollbackTx undoes every journaled mutation in reverse order, restoring the
// netlist byte-exactly to its state at BeginTx (or the previous
// RollbackTx), and releases the NodeGates PatchNode handed out since. The
// transaction stays open.
func (nl *Netlist) RollbackTx() {
	for i := len(nl.tx) - 1; i >= 0; i-- {
		nl.undo(nl.tx[i])
	}
	nl.tx = nl.tx[:0]
	nl.patched.reset()
}

// EndTx rolls back any outstanding mutations and closes the transaction.
func (nl *Netlist) EndTx() {
	nl.RollbackTx()
	nl.txOn = false
}

func (nl *Netlist) undo(op txOp) {
	switch op.kind {
	case txAddGate:
		// LIFO order guarantees op.g is the top of the arena and that any
		// fanout entries appended after this gate's creation have already
		// been undone, so each fanin's last matching fanout entry is the one
		// this AddGate appended.
		if op.g != len(nl.gates)-1 {
			panic(fmt.Sprintf("netlist: tx undo out of order: gate %d, arena %d", op.g, len(nl.gates)))
		}
		for _, f := range nl.gates[op.g].fanins {
			fo := nl.gates[f].fanouts
			for i := len(fo) - 1; i >= 0; i-- {
				if fo[i] == op.g {
					nl.gates[f].fanouts = append(fo[:i], fo[i+1:]...)
					break
				}
			}
		}
		nl.gates = nl.gates[:op.g]
		nl.logEdit(op.g)
	case txAddPin:
		fan := nl.gates[op.g].fanins
		src := fan[len(fan)-1]
		nl.gates[op.g].fanins = fan[:len(fan)-1]
		fo := nl.gates[src].fanouts
		for i := len(fo) - 1; i >= 0; i-- {
			if fo[i] == op.g {
				nl.gates[src].fanouts = append(fo[:i], fo[i+1:]...)
				break
			}
		}
		nl.logEdit(op.g)
	case txRemovePin:
		fan := nl.gates[op.g].fanins
		fan = append(fan, 0)
		copy(fan[op.pin+1:], fan[op.pin:])
		fan[op.pin] = op.src
		nl.gates[op.g].fanins = fan
		fo := nl.gates[op.src].fanouts
		fo = append(fo, 0)
		copy(fo[op.foIdx+1:], fo[op.foIdx:])
		fo[op.foIdx] = op.g
		nl.gates[op.src].fanouts = fo
		nl.logEdit(op.g)
	case txInvert:
		delete(nl.inv, op.g)
	}
}

// PatchNode rewrites node name's two-level structure in place: the node's OR
// gate keeps its id (so its name binding, Signal entry, and fanout list —
// the consumers — survive), its old cube pins are detached, and fresh cube
// AND gates for n's cover are appended exactly as buildNode lays them out
// (ascending variable order, cached inverters). The detached old cube gates
// stay in the arena with no live fanout; implication scopes are built from
// the current NodeGates, so they are never visited.
//
// The caller must hold an open transaction: RollbackTx restores the netlist
// byte-exactly, and the caller restores its own Nodes[name] entry (PatchNode
// overwrites it with the new structure). The returned NodeGates comes from
// the netlist's patch arena and is valid until the next RollbackTx or
// EndTx, so several nodes may be patched in one transaction. The node's OR
// gate is found through Signal, so a Nodes entry a rolled-back patch left
// behind is never read.
//
//bdslint:hotpath
func (b *Build) PatchNode(name string, n *network.Node) *NodeGates {
	nl := b.NL
	if !nl.txOn {
		panic("netlist: PatchNode outside a transaction")
	}
	out := nl.Signal[name]
	for pin := len(nl.gates[out].fanins) - 1; pin >= 0; pin-- {
		nl.RemovePin(out, pin)
	}
	ng := nl.patched.node()
	ng.Out = out
	for _, c := range n.Cover.Cubes {
		fan := b.fan[:0]
		for v := 0; v < c.NumVars(); v++ {
			switch c.Get(v) {
			case cube.Pos:
				fan = append(fan, nl.Signal[n.Fanins[v]])
			case cube.Neg:
				fan = append(fan, nl.Invert(nl.Signal[n.Fanins[v]]))
			}
		}
		b.fan = fan
		g := nl.AddGate(And, fan...)
		nl.patched.addCube(ng, g)
		nl.AddPin(out, g)
	}
	b.Nodes[name] = ng
	return ng
}
