package atpg

import "repro/internal/netlist"

// Wire identifies a fanin pin of a gate — the fault site granularity of the
// paper (faults live on wires/branches, not stems).
type Wire struct {
	Gate int
	Pin  int
}

// Fault is a stuck-at fault on a wire.
type Fault struct {
	Wire  Wire
	Stuck Value // the stuck value: testing requires the good value ¬Stuck
}

// MandatoryAssignments computes the assignments every test for f must
// satisfy:
//
//   - activation: the wire's driving gate carries the good value ¬Stuck;
//   - propagation: along the dominator chain from the faulted gate toward
//     the outputs, every side input must be at the gate's non-controlling
//     value. The walk stops at the first multi-fanout stem (no unique path
//     beyond), or after stopAfter dominators when stopAfter ≥ 0. The
//     region-local trials walk one step: to the node's OR gate for a
//     literal fault, and for a fault on an OR pin to that gate's single
//     fanout, unless the OR gate is a PO.
//
// No side input lies in the fault's transitive fanout, where its good and
// faulty values could differ, so none needs excluding. Each chain gate
// after the faulted gate is the single fanout of the gate before it, so a
// side input of chain gate c inside that fanout would be an earlier chain
// gate other than c's predecessor (whose one fanout is not c), c itself,
// or a gate in c's own fanout: each closes a cycle (DESIGN.md, "Implication
// engine: mandatory assignments without TFO marks").
//
// The assignments are asserted into e (which the caller typically Reset
// first); the return value is false if asserting them already conflicts.
func MandatoryAssignments(e *Engine, nl *netlist.Netlist, f Fault, stopAfter int) bool {
	src := nl.Fanins(f.Wire.Gate)[f.Wire.Pin]
	if !e.Assign(src, 1-f.Stuck) {
		return false
	}
	// Side inputs of the faulted gate itself.
	if !assignSides(e, nl, f.Wire.Gate, src) {
		return false
	}
	// Walk the dominator chain inline (same termination rules as
	// nl.Dominators: stop at multi-fanout stems and at POs) instead of
	// materializing the chain — stopAfter is usually 0 or 1.
	prev := f.Wire.Gate
	cur := f.Wire.Gate
	for i := 0; stopAfter < 0 || i < stopAfter; i++ {
		if nl.IsPO(cur) {
			break
		}
		fo := nl.Fanouts(cur)
		if len(fo) != 1 {
			break
		}
		cur = fo[0]
		if !assignSides(e, nl, cur, prev) {
			return false
		}
		prev = cur
	}
	return true
}

// assignSides puts non-controlling values on g's inputs other than
// `through`. None of them lies in the fault's transitive fanout (see
// MandatoryAssignments).
func assignSides(e *Engine, nl *netlist.Netlist, g, through int) bool {
	var nonctrl Value
	switch nl.KindOf(g) {
	case netlist.And:
		nonctrl = One
	case netlist.Or:
		nonctrl = Zero
	default:
		return true // NOT/Input: no side inputs
	}
	for _, f := range nl.Fanins(g) {
		if f == through {
			continue
		}
		if !e.Assign(f, nonctrl) {
			return false
		}
	}
	return true
}

// Untestable proves (soundly, incompletely) that fault f is untestable: it
// asserts the mandatory assignments and runs implications; a conflict is a
// proof of untestability. stopAfter limits the dominator walk as in
// MandatoryAssignments. A true result licenses replacing the wire with its
// stuck value.
//
// Before implying anything it looks for a witness: one of 256 fixed
// simulation patterns of e's netlist that agrees with every mandatory
// assignment. A witness shows the assignments consistent, so implication
// could not refute them, and Untestable returns false without running
// Propagate; the verdict is the one Propagate would give. With a witness
// the engine is left holding the mandatory assignments alone, unpropagated,
// so callers that read implied values (Val) run MandatoryAssignments and
// Propagate themselves.
func Untestable(e *Engine, nl *netlist.Netlist, f Fault, stopAfter int) bool {
	e.Reset()
	if !MandatoryAssignments(e, nl, f, stopAfter) {
		return true
	}
	if e.witness() {
		e.witnessed++
		return false
	}
	return !e.Propagate()
}

// RemoveIfUntestable tests the stuck-at-v fault on wire w and, when proved
// untestable, performs the removal:
//
//   - stuck-at-1 on an AND pin or stuck-at-0 on an OR pin: the pin is
//     deleted (the wire is replaced by the non-controlling value);
//   - stuck-at-0 on an AND pin / stuck-at-1 on an OR pin would constant-fix
//     the whole gate; the caller handles that case, so it is not offered
//     here.
//
// Returns whether the wire was removed.
func RemoveIfUntestable(e *Engine, nl *netlist.Netlist, w Wire, stuck Value, stopAfter int) bool {
	kind := nl.KindOf(w.Gate)
	if !(kind == netlist.And && stuck == One || kind == netlist.Or && stuck == Zero) {
		panic("atpg: RemoveIfUntestable only deletes non-controlling-stuck pins")
	}
	if !Untestable(e, nl, Fault{Wire: w, Stuck: stuck}, stopAfter) {
		return false
	}
	nl.RemovePin(w.Gate, w.Pin)
	return true
}
