package atpg

import "repro/internal/netlist"

// simWords is the number of 64-pattern words the witness simulation keeps
// per gate: 256 patterns.
const simWords = 4

// simMemo is an engine's lazily evaluated, bit-parallel simulation of the
// netlist it is bound to: the source of the witnesses that settle testable
// faults before any implication runs (see Engine.witness and DESIGN.md,
// "Implication engine: simulation witnesses"). Input gate g carries the
// fixed patterns inputWord(g, 0..simWords-1); every other gate's words are
// computed from its fanins' words when a check first reads them, and kept.
//
// Invariant: a marked gate (stamp[g] == mark) holds the words its kind
// computes from its current fanins' words, and every fanin of a marked gate
// is marked. The memo belongs to one netlist generation. Within it, catchUp
// restores the invariant after edits: it unmarks every gate in the edit log
// and every marked gate in its transitive fanout. That walk stops at an
// unmarked gate, because no marked gate reads one.
type simMemo struct {
	words [][simWords]uint64
	stamp []uint32
	mark  uint32
	// gen is the netlist generation the memo belongs to, and seen the
	// length of that generation's edit log the memo has caught up on.
	gen  uint64
	seen int
	// stack is the explicit stack of evaluation and unmarking walks.
	stack []int
}

// bind empties the memo for nl in O(1): bumping the mark unmarks every
// gate.
func (m *simMemo) bind(nl *netlist.Netlist) {
	m.mark++
	if m.mark == 0 {
		// Mark wrapped: stale stamps could alias, so clear once.
		clear(m.stamp)
		m.mark = 1
	}
	m.gen = nl.Generation()
	m.seen = len(nl.Edited())
}

// catchUp sizes the memo to nl and replays the edits logged since its last
// call: a new generation empties the memo, and each logged gate is unmarked
// with its marked transitive fanout.
func (m *simMemo) catchUp(nl *netlist.Netlist) {
	if n := nl.NumGates(); len(m.stamp) < n {
		m.stamp = append(m.stamp, make([]uint32, n-len(m.stamp))...)
		m.words = append(m.words, make([][simWords]uint64, n-len(m.words))...)
	}
	if nl.Generation() != m.gen {
		m.bind(nl)
		return
	}
	edited := nl.Edited()
	for _, g := range edited[m.seen:] {
		m.unmark(nl, g)
	}
	m.seen = len(edited)
}

// marked reports whether gate g's words are memoized.
func (m *simMemo) marked(g int) bool {
	return g < len(m.stamp) && m.stamp[g] == m.mark
}

// unmark drops gate g's words and those of every marked gate in its
// transitive fanout. A logged gate that no longer exists (a rolled-back
// AddGate) has no fanout to walk: each of its fanouts was removed before it
// or lost the pin, and is logged itself.
//
//bdslint:hotpath
func (m *simMemo) unmark(nl *netlist.Netlist, g int) {
	if !m.marked(g) {
		return
	}
	m.stamp[g] = 0
	n := nl.NumGates()
	stack := append(m.stack[:0], g)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x >= n {
			continue
		}
		for _, fo := range nl.Fanouts(x) {
			if m.marked(fo) {
				m.stamp[fo] = 0
				stack = append(stack, fo)
			}
		}
	}
	m.stack = stack
}

// value returns gate g's words, first evaluating the unmarked part of its
// transitive fanin, fanins before the gates that read them. catchUp must
// have run since the netlist's last edit.
//
//bdslint:hotpath
func (m *simMemo) value(nl *netlist.Netlist, g int) *[simWords]uint64 {
	if !m.marked(g) {
		stack := append(m.stack[:0], g)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			if m.marked(x) {
				stack = stack[:len(stack)-1]
				continue
			}
			ready := true
			for _, f := range nl.Fanins(x) {
				if !m.marked(f) {
					stack = append(stack, f)
					ready = false
				}
			}
			if ready {
				m.eval(nl, x)
				stack = stack[:len(stack)-1]
			}
		}
		m.stack = stack
	}
	return &m.words[g]
}

// eval computes gate x's words from its fanins' memoized words and marks
// it.
//
//bdslint:hotpath
func (m *simMemo) eval(nl *netlist.Netlist, x int) {
	w := &m.words[x]
	switch nl.KindOf(x) {
	case netlist.Input:
		for i := range w {
			w[i] = inputWord(x, i)
		}
	case netlist.And:
		*w = [simWords]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		for _, f := range nl.Fanins(x) {
			for i, fw := range m.words[f] {
				w[i] &= fw
			}
		}
	case netlist.Or:
		*w = [simWords]uint64{}
		for _, f := range nl.Fanins(x) {
			for i, fw := range m.words[f] {
				w[i] |= fw
			}
		}
	default: // Not
		for i, fw := range m.words[nl.Fanins(x)[0]] {
			w[i] = ^fw
		}
	}
	m.stamp[x] = m.mark
}

// inputWord is word i of input gate g's patterns: the splitmix64 finalizer
// of (g, i). The patterns are fixed, so every run settles the same faults.
func inputWord(g, i int) uint64 {
	z := uint64(g)*simWords + uint64(i) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// witness reports whether some simulated pattern agrees with every
// assignment on the trail. Such a pattern is a consistent assignment of the
// whole netlist, and implication (direct and learned) derives only values
// that hold in every consistent assignment extending the trail, so
// Propagate could not reach a conflict: the answer it would give is known.
//
//bdslint:hotpath
func (e *Engine) witness() bool {
	m := &e.sim
	m.catchUp(e.nl)
	agree := [simWords]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	for _, g := range e.trail {
		var flip uint64
		if e.val[g] == Zero {
			flip = ^uint64(0)
		}
		var left uint64
		for i, w := range m.value(e.nl, g) {
			agree[i] &= w ^ flip
			left |= agree[i]
		}
		if left == 0 {
			return false
		}
	}
	return true
}

// Witnessed returns how many Untestable calls on e a simulation witness
// settled without running implications, since NewEngine.
func (e *Engine) Witnessed() int { return e.witnessed }
