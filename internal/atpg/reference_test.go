package atpg

// This file keeps the implication engine as it was before learning ran its
// sandboxes in place on the trail: refEngine's learnPass, fork and
// propagateLearn are the pre-change code word for word, and the rest of
// the engine they call is copied with them (only the receiver and options
// types are renamed). FuzzImplications checks Engine against it.

import (
	"sort"

	"repro/internal/netlist"
)

// refOptions are the pre-change Options: a map scope and a learning cap.
type refOptions struct {
	Scope         map[int]bool
	Learn         bool
	LearnDepth    int
	MaxLearnGates int
}

// refEngine is the pre-change Engine without its fault-setup scratch.
type refEngine struct {
	nl    *netlist.Netlist
	val   []Value
	trail []int
	queue []int
	inQ   []bool
	opt   refOptions
}

// newRefEngine is the pre-change NewEngine.
func newRefEngine(nl *netlist.Netlist, opt refOptions) *refEngine {
	n := nl.NumGates()
	e := &refEngine{nl: nl, val: make([]Value, n), inQ: make([]bool, n), opt: opt}
	for i := range e.val {
		e.val[i] = Unknown
	}
	return e
}

// Val returns the current value of gate g.
func (e *refEngine) Val(g int) Value { return e.val[g] }

// inScope reports whether implications may be derived at gate g.
func (e *refEngine) inScope(g int) bool {
	return e.opt.Scope == nil || e.opt.Scope[g]
}

// Assign records gate g := v. It returns false on conflict with an existing
// assignment. The gate and its neighborhood are queued for implication.
func (e *refEngine) Assign(g int, v Value) bool {
	if cur := e.val[g]; cur != Unknown {
		return cur == v
	}
	e.val[g] = v
	e.trail = append(e.trail, g)
	e.enqueue(g)
	for _, fo := range e.nl.Fanouts(g) {
		e.enqueue(fo)
	}
	for _, fi := range e.nl.Fanins(g) {
		e.enqueue(fi)
	}
	return true
}

func (e *refEngine) enqueue(g int) {
	if !e.inQ[g] && e.inScope(g) {
		e.inQ[g] = true
		e.queue = append(e.queue, g)
	}
}

// Propagate runs implications to a fixed point; false means conflict (the
// assignment set is unsatisfiable). With Learn set, a learning pass runs
// whenever direct implications reach a quiet fixed point.
func (e *refEngine) Propagate() bool {
	for {
		for len(e.queue) > 0 {
			g := e.queue[len(e.queue)-1]
			e.queue = e.queue[:len(e.queue)-1]
			e.inQ[g] = false
			if !e.implyAt(g) {
				return false
			}
		}
		if !e.opt.Learn {
			return true
		}
		depth := e.opt.LearnDepth
		if depth < 1 {
			depth = 1
		}
		progressed, ok := e.learnPass(depth)
		if !ok {
			return false
		}
		if !progressed {
			return true
		}
	}
}

// implyAt derives all direct implications at gate g from its current input
// and output values. Returns false on conflict.
func (e *refEngine) implyAt(g int) bool {
	nl := e.nl
	switch nl.KindOf(g) {
	case netlist.Input:
		return true
	case netlist.Not:
		in := nl.Fanins(g)[0]
		if v := e.val[in]; v != Unknown {
			if !e.Assign(g, 1-v) {
				return false
			}
		}
		if v := e.val[g]; v != Unknown {
			if !e.Assign(in, 1-v) {
				return false
			}
		}
		return true
	case netlist.And:
		return e.implyAndOr(g, Zero, One)
	default: // Or
		return e.implyAndOr(g, One, Zero)
	}
}

// implyAndOr handles AND (ctrl=0, nonctrl=1) and OR (ctrl=1, nonctrl=0).
func (e *refEngine) implyAndOr(g int, ctrl, nonctrl Value) bool {
	fan := e.nl.Fanins(g)
	nCtrl := 0
	nUnknown := 0
	lastUnknown := -1
	for _, f := range fan {
		switch e.val[f] {
		case ctrl:
			nCtrl++
		case Unknown:
			nUnknown++
			lastUnknown = f
		}
	}
	// Forward implications.
	if nCtrl > 0 {
		if !e.Assign(g, ctrl) {
			return false
		}
	} else if nUnknown == 0 {
		if !e.Assign(g, nonctrl) {
			return false
		}
	}
	// Backward implications.
	switch e.val[g] {
	case nonctrl:
		// Output non-controlled: every input must be non-controlling.
		for _, f := range fan {
			if !e.Assign(f, nonctrl) {
				return false
			}
		}
	case ctrl:
		// Output controlled: if no controlling input yet and only one
		// unknown remains, it must be the controlling one.
		if nCtrl == 0 {
			if nUnknown == 0 {
				return false // all inputs non-controlling but output controlled
			}
			if nUnknown == 1 {
				if !e.Assign(lastUnknown, ctrl) {
					return false
				}
			}
		}
	}
	return true
}

// learnPass performs one round of recursive learning at the given depth on
// unjustified gates: for each, every justification alternative is
// propagated in a sandbox (which itself learns at depth-1 when depth > 1);
// if all alternatives conflict the assignment set is inconsistent,
// otherwise assignments common to the surviving alternatives are asserted.
// Returns (progressed, consistent).
func (e *refEngine) learnPass(depth int) (bool, bool) {
	max := e.opt.MaxLearnGates
	if max == 0 {
		max = 32
	}
	progressed := false
	examined := 0
	for g := 0; g < e.nl.NumGates() && examined < max; g++ {
		if !e.inScope(g) {
			continue
		}
		alts := e.justifications(g)
		if alts == nil {
			continue
		}
		examined++
		var common map[int]Value
		consistentAlts := 0
		for _, alt := range alts {
			sandbox := e.fork()
			ok := sandbox.Assign(alt.gate, alt.val) && sandbox.propagateLearn(depth-1)
			if !ok {
				continue
			}
			consistentAlts++
			if common == nil {
				common = make(map[int]Value)
				for _, x := range sandbox.trail {
					common[x] = sandbox.val[x]
				}
			} else {
				//bdslint:ignore maporder order-invisible set intersection: entries are tested and deleted independently
				for x, v := range common {
					if sandbox.val[x] != v {
						delete(common, x)
					}
				}
			}
		}
		if consistentAlts == 0 {
			return false, false
		}
		// Assign runs implications, so the order forced assignments are
		// applied in is observable (which assignment hits a contradiction
		// first); sort for a reproducible schedule.
		forced := make([]int, 0, len(common))
		//bdslint:ignore maporder keys collected then sorted before use
		for x := range common {
			forced = append(forced, x)
		}
		sort.Ints(forced)
		for _, x := range forced {
			if e.val[x] == Unknown {
				if !e.Assign(x, common[x]) {
					return false, false
				}
				progressed = true
			}
		}
		if progressed {
			// Let direct implications settle before learning further.
			return true, true
		}
	}
	return progressed, true
}

// propagateLearn runs direct implications plus recursive learning at the
// given remaining depth inside a sandbox.
func (e *refEngine) propagateLearn(depth int) bool {
	for {
		if !e.propagateDirect() {
			return false
		}
		if depth <= 0 {
			return true
		}
		progressed, ok := e.learnPass(depth)
		if !ok {
			return false
		}
		if !progressed {
			return true
		}
	}
}

// justifications returns the alternative assignments that could justify an
// unjustified gate g (controlled output with no controlling input and ≥2
// unknowns), or nil when g is justified.
func (e *refEngine) justifications(g int) []alt {
	var ctrl Value
	switch e.nl.KindOf(g) {
	case netlist.And:
		ctrl = Zero
	case netlist.Or:
		ctrl = One
	default:
		return nil
	}
	if e.val[g] != ctrl {
		return nil
	}
	var out []alt
	for _, f := range e.nl.Fanins(g) {
		switch e.val[f] {
		case ctrl:
			return nil // already justified
		case Unknown:
			out = append(out, alt{f, ctrl})
		}
	}
	if len(out) < 2 {
		return nil // direct implication territory
	}
	return out
}

// fork clones the engine state for sandboxed propagation (learning only,
// without further learning recursion).
func (e *refEngine) fork() *refEngine {
	c := &refEngine{nl: e.nl, val: make([]Value, len(e.val)), inQ: make([]bool, len(e.inQ)), opt: refOptions{Scope: e.opt.Scope}}
	copy(c.val, e.val)
	return c
}

// propagateDirect is Propagate without learning (used inside sandboxes).
func (e *refEngine) propagateDirect() bool {
	for len(e.queue) > 0 {
		g := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.inQ[g] = false
		if !e.implyAt(g) {
			return false
		}
	}
	return true
}
