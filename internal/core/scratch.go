package core

import (
	"repro/internal/atpg"
	"repro/internal/cube"
	"repro/internal/netlist"
	"repro/internal/network"
)

// scratch is the per-worker arena for division trials: netlist builders,
// implication engines and the node-form trial memory, all reset (not
// reallocated) between trials. A scratch is owned by exactly one goroutine
// at a time and carries no result-visible state across trials — only raw
// capacity and the memoized base build below. Scratches outlive a
// Substitute call on a free list, which drops the memoized build (see
// evaluator.release).
//
// Two builders with distinct roles keep the patched trials' netlists
// alive across trials without aliasing:
//
//	bShared — the base build of the pinned live network, built once per
//	          network version and then patched/rolled back by every
//	          unwindowed trial at that version (see baseBuild): node-form
//	          divisions, and a decomposition's division by its core.
//	bFresh  — single-trial builds: a carved window's region of the live
//	          network, a build of any reader that is not pinned (the public
//	          one-shot wrappers' networks), and the reference path's
//	          netlists, which it rebuilds every RAR pass.
type scratch struct {
	bShared *netlist.Builder
	bFresh  *netlist.Builder

	// engines holds one implication engine per builder arena, keyed by the
	// netlist pointer (stable for a builder's lifetime). Keeping them
	// separate means every engine() call Rebinds to the netlist it is
	// already bound to — the cheap O(delta) path — instead of ping-ponging
	// one engine between arenas with O(gates) clears.
	engines map[*netlist.Netlist]*atpg.Engine
	// scope is the region-scope list handed to the next engine() call,
	// which copies it; it is rebuilt in place for every trial.
	scope []int
	// saved holds the base build's node entries a patched trial overwrites
	// (see rarPatched).
	saved []*netlist.NodeGates
	// trial is the default path's node-form division memory, released by
	// every division (see trialMem).
	trial trialArena

	// pin is the one reader whose base build may be memoized in bShared: the
	// live network the evaluator is currently planning against, set by
	// planPair/planPooled. The explicit pin (instead of keying a cache by
	// reader pointer) makes address reuse harmless: the reference path's
	// clones and windows die and their addresses recycle, but they can never
	// equal the live network's address while it is pinned.
	pin network.Reader
	// sharedFor and sharedVersion record which reader, at which of its
	// versions, sharedBuild snapshots. Every edit of the network advances
	// its version, so a stale base build is never patched again.
	sharedFor     network.Reader
	sharedVersion uint64
	sharedBuild   *netlist.Build

	// win is the window every windowed trial carves (window.carve), with
	// its stamp sets and buffers.
	win window

	// reference mirrors Options.reference for the running trial (set at
	// the planner entry points): trials run on deep clones and every RAR
	// pass rebuilds its netlist, exactly the historical engine.
	reference bool
	// noFloor makes POS division finish every division the literal floor
	// would refuse: the floor audit's re-plan (see auditFloor) sets it.
	noFloor bool
	// parts makes every division fill DivideResult's informational
	// Quotient and Remainder. Only the public one-shot wrappers read them
	// (see oneShot); engine trials skip the split and its allocations.
	parts bool
}

// trialArena is what one node-form division builds and drops: the union
// fanin list (with the divisor signal appended when it is not among them),
// f and d remapped into it, the SOS split, the tentative cover and the
// cover every RAR pass extracts, with all their cube words on one cube
// arena. A division's fanins and cover live here until the next division
// on the same scratch, so whoever keeps them copies them out (see
// DivideResult.keep).
type trialArena struct {
	cubes cube.Arena
	space []string
	// The cube lists of f and d remapped, the SOS split's two parts, the
	// tentative cover and the latest extraction.
	fU, dU, q, r, tent, ext []cube.Cube
	// at is the list of fanin positions a remap reads; fanGates is
	// extractNode's list of the node's fanin signal gates.
	at, fanGates []int
	// node and nodes hold the body of the latest plan without gain (see
	// body).
	node  network.Node
	nodes [1]*network.Node
}

// trialMem returns the memory for the next division, released: the
// scratch's own arena on the default path, and a fresh one — heap memory
// nothing recycles — on the reference path, which Options.Audit replays as
// the heap-built oracle, and for the one-shot wrappers, whose callers keep
// what a division returns.
//
//bdslint:hotpath
func (sc *scratch) trialMem() *trialArena {
	if sc.reference || sc.parts {
		return new(trialArena)
	}
	sc.trial.cubes.Release(0)
	return &sc.trial
}

// remap returns f moved from the space fanins into the space dst, which
// holds every fanin: its cubes are built on t's arena and listed in *buf.
//
//bdslint:hotpath
func (t *trialArena) remap(buf *[]cube.Cube, f cube.Cover, fanins, dst []string) cube.Cover {
	t.at = t.at[:0]
	for _, s := range fanins {
		t.at = append(t.at, indexOf(dst, s))
	}
	*buf = network.AppendRemapped((*buf)[:0], &t.cubes, f, t.at, len(dst))
	out := cube.NewCover(len(dst))
	out.Cubes = *buf
	return out
}

// body returns res as node f's body in a one-element list t owns: the body
// of a plan no caller keeps, which like res is valid only until the
// scratch's next division. It is there for Options.Audit and the window
// tests, which compare every plan's body with the reference path's.
//
//bdslint:hotpath
func (t *trialArena) body(f string, res DivideResult) []*network.Node {
	t.node = network.Node{Name: f, Fanins: res.Fanins, Cover: res.Cover}
	t.nodes[0] = &t.node
	return t.nodes[:]
}

func newScratch() *scratch {
	return &scratch{
		bShared: netlist.NewBuilder(),
		bFresh:  netlist.NewBuilder(),
		engines: make(map[*netlist.Netlist]*atpg.Engine),
	}
}

// oneShot returns the scratch a public one-shot division wrapper runs on:
// a fresh arena whose divisions report their quotient and remainder.
func oneShot() *scratch {
	sc := newScratch()
	sc.parts = true
	return sc
}

// engine returns the scratch's implication engine for nl rebound with the
// given options, creating it on first use of that arena.
//
//bdslint:hotpath
func (sc *scratch) engine(nl *netlist.Netlist, opt atpg.Options) *atpg.Engine {
	if e := sc.engines[nl]; e != nil {
		e.Rebind(nl, opt)
		return e
	}
	e := atpg.NewEngine(nl, opt)
	sc.engines[nl] = e
	return e
}

// baseBuild returns a netlist build of r's current state for use as a
// patch base (or as a read-only implication substrate, e.g. the vote
// table). Builds of the pinned live reader are memoized per version of it —
// every trial at one version patches and rolls back the same build — while
// any other reader, and every reader on the reference path, gets a fresh
// single-trial build from the bFresh arena.
//
//bdslint:hotpath
func (sc *scratch) baseBuild(r network.Reader) *netlist.Build {
	if !sc.reference && r == sc.pin {
		if v := r.Version(); sc.sharedBuild == nil || sc.sharedFor != r || sc.sharedVersion != v {
			sc.sharedBuild = sc.bShared.Build(r)
			sc.sharedFor, sc.sharedVersion = r, v
		}
		return sc.sharedBuild
	}
	return sc.bFresh.Build(r)
}
