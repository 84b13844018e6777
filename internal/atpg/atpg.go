// Package atpg implements the 3-valued implication engine and the
// stuck-at-fault untestability proofs that power redundancy removal — the
// workhorse of the paper's Boolean division. A fault is proved untestable by
// deriving a contradiction from its mandatory assignments (activation value
// plus non-controlling side inputs along the dominator chain); an untestable
// wire can be replaced by the stuck value without changing any primary
// output, which is exactly how quotient literals are deleted.
//
// The implication scope is configurable: the paper's "ext" configuration
// confines implications to the dividend/divisor region, while "ext GDC"
// lets them run through the whole circuit and adds downstream observability
// requirements, naturally harvesting global internal don't cares. Depth-1
// recursive learning (Kunz–Pradhan) is available as an option.
//
// Most faults a division asks about are testable, and implication can only
// fail to refute them. So Untestable first simulates the engine's netlist
// on 256 fixed patterns, lazily and memoized per gate across the netlist's
// patches and rollbacks (witness.go): a pattern that satisfies every
// mandatory assignment settles the fault as testable before any
// implication runs.
package atpg

import (
	"slices"

	"repro/internal/netlist"
)

// Value is a 3-valued signal state.
type Value int8

const (
	// Unknown is the unassigned state.
	Unknown Value = -1
	// Zero and One are the binary values.
	Zero Value = 0
	// One is the binary true value.
	One Value = 1
)

// Options configure an implication run.
type Options struct {
	// Scope restricts implication processing to the listed gates when
	// non-nil: implications are neither derived at nor propagated through
	// gates outside the scope. NewEngine and Rebind copy the list into the
	// engine, so the caller may reuse its backing array afterwards;
	// duplicates are harmless.
	Scope []int
	// Learn enables recursive learning: unjustified gates are case-split
	// and assignments common to all consistent cases asserted.
	Learn bool
	// LearnDepth is the recursion depth of learning (0 = depth 1, the
	// Kunz–Pradhan first level; higher depths case-split inside the
	// sandboxes too, converging on complete implication at the cost of
	// exponential work).
	LearnDepth int
}

// maxLearnGates caps how many unjustified gates one learning pass
// examines, at every depth.
const maxLearnGates = 32

// Engine performs implications over a netlist. Create one per netlist;
// Reset between fault tests reuses the allocations.
type Engine struct {
	nl    *netlist.Netlist
	val   []Value
	trail []int
	queue []int
	inQ   []bool
	// dirty[g] is set when g's value or an input's value changes, and
	// cleared when g is evaluated: a clean gate with a fanin derives
	// nothing if evaluated again, so propagateDirect skips it (see
	// DESIGN.md, "Implication engine: skipping unchanged gates").
	dirty []bool
	opt   Options
	// Scope marking: with scoped set, scopeStamp[g] == scopeGen marks g as
	// inside Options.Scope. Bumping scopeGen invalidates the previous
	// binding's scope in O(1), so NewEngine and Rebind pay only for the
	// listed gates.
	scoped     bool
	scopeStamp []uint32
	scopeGen   uint32
	// learn[d-1] is the scratch of the learning pass running at depth d.
	// A recursion chain holds at most one pass per depth, so the buffers
	// never alias, and a warmed engine learns without allocating.
	learn []learnScratch
	// sim is the witness simulation of the bound netlist (see witness.go),
	// and witnessed counts the Untestable calls a witness settled.
	sim       simMemo
	witnessed int
}

// learnScratch holds one learning pass's buffers.
type learnScratch struct {
	cands  []int // in-scope unjustified gates, ascending
	alts   []alt // justification alternatives of the gate under examination
	common []alt // assignments shared by every consistent alternative so far
}

// NewEngine builds an engine for nl.
func NewEngine(nl *netlist.Netlist, opt Options) *Engine {
	n := nl.NumGates()
	e := &Engine{nl: nl, val: make([]Value, n), inQ: make([]bool, n), dirty: make([]bool, n)}
	for i := range e.val {
		e.val[i] = Unknown
	}
	e.sim.bind(nl)
	e.setOptions(opt)
	return e
}

// Rebind retargets an existing engine at a (possibly rebuilt) netlist,
// reusing the value/queue arrays when their capacity suffices. It is the
// arena analogue of NewEngine: a worker that rebuilds a fresh netlist for
// every division trial keeps one Engine and Rebinds it instead of
// reallocating. The rebound engine starts fully cleared.
//
// Rebinding to the netlist the engine is already bound to — the patched-
// netlist trial path, where gates were appended or the arena rolled back
// between faults — takes a fast path proportional to the previous
// assignment set, the gate-count delta and the scope list, not the netlist
// size. The arrays never shrink there: a rolled-back arena can regrow under
// different ids, and Reset's invariant (everything outside the trail is
// Unknown) already keeps the tail slots clean. The witness simulation
// survives this path too; it catches up on the netlist's edit log at its
// next use.
func (e *Engine) Rebind(nl *netlist.Netlist, opt Options) {
	n := nl.NumGates()
	if nl == e.nl {
		for len(e.val) < n {
			e.val = append(e.val, Unknown)
			e.inQ = append(e.inQ, false)
			e.dirty = append(e.dirty, false)
		}
		e.Reset()
		e.setOptions(opt)
		return
	}
	e.nl = nl
	if cap(e.val) < n {
		e.val = make([]Value, n)
		e.inQ = make([]bool, n)
		e.dirty = make([]bool, n)
	} else {
		e.val = e.val[:n]
		e.inQ = e.inQ[:n]
		e.dirty = e.dirty[:n]
	}
	for i := range e.val {
		e.val[i] = Unknown
		e.inQ[i] = false
		e.dirty[i] = false
	}
	e.trail = e.trail[:0]
	e.queue = e.queue[:0]
	e.sim.bind(nl)
	e.setOptions(opt)
}

// setOptions installs opt: it stamps the scope list into the dense scope
// marks (the engine keeps no reference to the list) and sizes the
// per-depth learning scratch.
func (e *Engine) setOptions(opt Options) {
	e.scoped = opt.Scope != nil
	if e.scoped {
		if n := len(e.val); len(e.scopeStamp) < n {
			e.scopeStamp = append(e.scopeStamp, make([]uint32, n-len(e.scopeStamp))...)
		}
		e.scopeGen++
		if e.scopeGen == 0 {
			// Generation wrapped: stale stamps could alias, so clear once.
			clear(e.scopeStamp)
			e.scopeGen = 1
		}
		for _, g := range opt.Scope {
			e.scopeStamp[g] = e.scopeGen
		}
		opt.Scope = nil
	}
	e.opt = opt
	if opt.Learn {
		for len(e.learn) < e.learnDepth() {
			e.learn = append(e.learn, learnScratch{})
		}
	}
}

// learnDepth is the depth of the learning pass Propagate runs.
func (e *Engine) learnDepth() int {
	return max(e.opt.LearnDepth, 1)
}

// Reset clears all assignments. It is proportional to the trail and pending
// queue, not the netlist: inQ[g] is true exactly for the gates currently in
// the queue (enqueue sets both together, the propagation loops clear both
// together), so draining the queue restores inQ without a full sweep.
func (e *Engine) Reset() { e.undo(0) }

// undo retracts every assignment made since the trail had length mark and
// drains the queue. Everything off the trail is Unknown (Reset's
// invariant), so truncating the trail restores exactly the values at mark;
// draining the queue restores the state at mark whenever the queue was
// empty then, as it is on entry to a learning pass.
//
//bdslint:hotpath
func (e *Engine) undo(mark int) {
	for _, g := range e.trail[mark:] {
		e.val[g] = Unknown
	}
	e.trail = e.trail[:mark]
	for _, g := range e.queue {
		e.inQ[g] = false
	}
	e.queue = e.queue[:0]
}

// Val returns the current value of gate g.
func (e *Engine) Val(g int) Value { return e.val[g] }

// inScope reports whether implications may be derived at gate g.
func (e *Engine) inScope(g int) bool {
	return !e.scoped || e.scopeStamp[g] == e.scopeGen
}

// Assign records gate g := v. It returns false on conflict with an existing
// assignment. The gate and its neighborhood are queued for implication, and
// g and its fanouts, whose evaluations read g's value, are marked dirty.
//
//bdslint:hotpath
func (e *Engine) Assign(g int, v Value) bool {
	if cur := e.val[g]; cur != Unknown {
		return cur == v
	}
	e.val[g] = v
	e.trail = append(e.trail, g)
	e.dirty[g] = true
	e.enqueue(g)
	for _, fo := range e.nl.Fanouts(g) {
		e.dirty[fo] = true
		e.enqueue(fo)
	}
	for _, fi := range e.nl.Fanins(g) {
		e.enqueue(fi)
	}
	return true
}

// enqueue queues gate g for implication unless it is queued already or
// out of scope.
//
//bdslint:hotpath
func (e *Engine) enqueue(g int) {
	if !e.inQ[g] && e.inScope(g) {
		e.inQ[g] = true
		e.queue = append(e.queue, g)
	}
}

// Propagate runs implications to a fixed point; false means conflict (the
// assignment set is unsatisfiable). With Learn set, a learning pass runs
// whenever direct implications reach a quiet fixed point.
func (e *Engine) Propagate() bool {
	for {
		if !e.propagateDirect() {
			return false
		}
		if !e.opt.Learn {
			return true
		}
		progressed, ok := e.learnPass(e.learnDepth())
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
//
//bdslint:hotpath
func (e *Engine) implyAt(g int) bool {
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
//
//bdslint:hotpath
func (e *Engine) implyAndOr(g int, ctrl, nonctrl Value) bool {
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
//
// The sandboxes run in place. learnPass is entered only with an empty
// queue (Propagate and propagateLearn drain it first, and every sandbox
// drains it on undo), so an alternative is asserted on the engine itself,
// propagated, read off the trail suffix it appended, and undone back to
// the mark. Candidates come from the trail: an unjustified gate carries
// its controlling value, so it is assigned, and sorting the trail's
// candidates by id examines the same gates in the same order as a scan of
// every gate id would. See DESIGN.md, "Implication engine: in-place
// learning and dense scope".
//
//bdslint:hotpath
func (e *Engine) learnPass(depth int) (bool, bool) {
	s := &e.learn[depth-1]
	s.cands = s.cands[:0]
	for _, g := range e.trail {
		if !e.inScope(g) {
			continue
		}
		if s.alts = e.justifications(s.alts[:0], g); len(s.alts) > 0 {
			s.cands = append(s.cands, g)
		}
	}
	slices.Sort(s.cands)
	if len(s.cands) > maxLearnGates {
		s.cands = s.cands[:maxLearnGates]
	}
	for _, g := range s.cands {
		s.alts = e.justifications(s.alts[:0], g)
		s.common = s.common[:0]
		consistentAlts := 0
		for _, a := range s.alts {
			mark := len(e.trail)
			if e.Assign(a.gate, a.val) && e.propagateLearn(depth-1) {
				if consistentAlts == 0 {
					for _, x := range e.trail[mark:] {
						s.common = append(s.common, alt{x, e.val[x]})
					}
				} else {
					kept := s.common[:0]
					for _, c := range s.common {
						if e.val[c.gate] == c.val {
							kept = append(kept, c)
						}
					}
					s.common = kept
				}
				consistentAlts++
			}
			e.undo(mark)
			if consistentAlts > 0 && len(s.common) == 0 {
				// Nothing left to learn from g, and g is consistent: the
				// remaining alternatives cannot change the outcome.
				break
			}
		}
		if consistentAlts == 0 {
			return false, false
		}
		if len(s.common) > 0 {
			// Every learned gate was Unknown at the mark, and Assign only
			// queues, so each assertion succeeds. Gate order fixes the
			// queue order, and with it the propagation schedule.
			slices.SortFunc(s.common, byGate)
			for _, c := range s.common {
				e.Assign(c.gate, c.val)
			}
			// Let direct implications settle before learning further.
			return true, true
		}
	}
	return false, true
}

// propagateLearn runs direct implications plus recursive learning at the
// given remaining depth inside a sandbox.
func (e *Engine) propagateLearn(depth int) bool {
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

// alt is one gate assignment: a justification alternative or a learned
// implication.
type alt struct {
	gate int
	val  Value
}

// byGate orders assignments by gate id.
func byGate(a, b alt) int { return a.gate - b.gate }

// justifications appends to dst the alternative assignments that could
// justify an unjustified gate g (controlled output with no controlling
// input and ≥2 unknowns) and returns it; the result is empty when g is
// justified. An empty result keeps any capacity the scan grew, so a caller
// that stores it back allocates only while its buffer grows.
func (e *Engine) justifications(dst []alt, g int) []alt {
	var ctrl Value
	switch e.nl.KindOf(g) {
	case netlist.And:
		ctrl = Zero
	case netlist.Or:
		ctrl = One
	default:
		return dst[:0]
	}
	if e.val[g] != ctrl {
		return dst[:0]
	}
	out := dst[:0]
	for _, f := range e.nl.Fanins(g) {
		switch e.val[f] {
		case ctrl:
			return out[:0] // already justified
		case Unknown:
			out = append(out, alt{f, ctrl})
		}
	}
	if len(out) < 2 {
		return out[:0] // direct implication territory
	}
	return out
}

// propagateDirect drains the queue through direct implications, without
// learning. A popped gate that is clean and has a fanin is skipped: nothing
// it reads changed since an evaluation that derived nothing, so evaluating
// it again would derive nothing either. Gates without fanins (inputs, and
// constant AND/OR gates, whose evaluation assigns their value) are always
// evaluated. An evaluation that assigns anything marks the gate dirty
// again through Assign, and so does a conflict, which stops it midway.
//
//bdslint:hotpath
func (e *Engine) propagateDirect() bool {
	for len(e.queue) > 0 {
		g := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.inQ[g] = false
		if !e.dirty[g] && len(e.nl.Fanins(g)) > 0 {
			continue
		}
		e.dirty[g] = false
		if !e.implyAt(g) {
			e.dirty[g] = true
			return false
		}
	}
	return true
}
