package core

import (
	"repro/internal/algebraic"
	"repro/internal/atpg"
	"repro/internal/cube"
	"repro/internal/netlist"
	"repro/internal/network"
)

// scratch is the per-worker arena for division trials: netlist builders and
// implication engines, all reset (not reallocated) between trials. A scratch
// is owned by exactly one goroutine at a time and carries no result-visible
// state across trials — only raw capacity and the memoized base build below.
//
// Three builders with distinct roles keep the overlay trial path's netlists
// alive across trials without aliasing:
//
//	b       — full per-trial rebuilds: the NoOverlay clone path and GDC
//	          trials (whose learning pass is gate-id-order sensitive, so
//	          they must see exactly the netlist a fresh build produces).
//	bShared — the base build of the pinned live network, built once per
//	          commit epoch and then patched/rolled back by every trial of
//	          the epoch (see baseBuild).
//	bFresh  — base builds of any other reader (a window, an extended
//	          decomposition's working overlay): one build per trial, still
//	          patched between RAR passes instead of rebuilt.
type scratch struct {
	b       *netlist.Builder
	bShared *netlist.Builder
	bFresh  *netlist.Builder

	// engines holds one implication engine per builder arena, keyed by the
	// netlist pointer (stable for a builder's lifetime). Keeping them
	// separate means every engine() call Rebinds to the netlist it is
	// already bound to — the cheap O(delta) path — instead of ping-ponging
	// one engine between arenas with O(gates) clears.
	engines map[*netlist.Netlist]*atpg.Engine

	// pin is the one reader whose base build may be memoized in bShared: the
	// live network the evaluator is currently planning against, set by
	// planPair/planPooled. The explicit pin (instead of keying a cache by
	// reader pointer) makes address reuse harmless: per-trial windows and
	// overlays die and their addresses recycle, but they can never equal the
	// live network's address while it is pinned.
	pin network.Reader
	// epoch is the evaluator's commit epoch as of this trial; sharedFor and
	// sharedEpoch record which (reader, epoch) sharedBuild was built for. A
	// commit bumps the evaluator's epoch, so stale base builds are never
	// patched again.
	epoch       uint64
	sharedFor   network.Reader
	sharedEpoch uint64
	sharedBuild *netlist.Build

	// Window-extraction arenas (windowFor): stamp sets for the included
	// nodes, the frontier inputs and the ordering DFS, plus reusable
	// BFS/DFS/list buffers, so a windowed trial allocates nothing
	// proportional to the full network.
	winInc, winFr, winDone network.ConeArena
	winQueue               []winItem
	winStack               []winItem
	winNodes               []network.SigID
	winIns                 []string

	// noOverlay mirrors Options.NoOverlay for the running trial (set at the
	// planner entry points): trialClone hands out deep clones and every RAR
	// pass rebuilds its netlist, exactly the historical engine.
	noOverlay bool

	// flits memoizes FactorLits of LIVE network nodes per (pinned reader,
	// commit epoch): within an epoch nothing mutates the live network, so
	// the factored cost of a node (the before-cost every trial of an epoch
	// recomputes) is a pure function of its SigID. The arena is
	// SigID-indexed with per-slot generation stamps — a slot is valid only
	// while flitsGen[id] == flitsCur — so a pin or epoch change invalidates
	// every entry by bumping flitsCur in O(1) instead of reallocating.
	// Holding flitsFor keeps the reader alive, so the identity comparison
	// cannot be fooled by address reuse.
	flits      []int
	flitsGen   []uint64
	flitsCur   uint64
	flitsFor   network.Reader
	flitsEpoch uint64
}

func newScratch() *scratch {
	return &scratch{
		b:       netlist.NewBuilder(),
		bShared: netlist.NewBuilder(),
		bFresh:  netlist.NewBuilder(),
		engines: make(map[*netlist.Netlist]*atpg.Engine),
	}
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

// factorLits returns algebraic.FactorLits(cov) memoized by live-node SigID
// and commit epoch. Callers must pass IDs and covers of live network nodes
// only — overlay extension IDs are not stable across trials.
//
//bdslint:hotpath
func (sc *scratch) factorLits(id network.SigID, cov cube.Cover) int {
	if sc.flitsCur == 0 || sc.flitsEpoch != sc.epoch || sc.flitsFor != sc.pin {
		sc.flitsCur++
		sc.flitsFor = sc.pin
		sc.flitsEpoch = sc.epoch
	}
	for int(id) >= len(sc.flits) {
		sc.flits = append(sc.flits, 0)
		sc.flitsGen = append(sc.flitsGen, 0)
	}
	if sc.flitsGen[id] == sc.flitsCur {
		return sc.flits[id]
	}
	v := algebraic.FactorLits(cov)
	sc.flits[id] = v
	sc.flitsGen[id] = sc.flitsCur
	return v
}

// baseBuild returns a netlist build of r's current state for use as a
// patch base (or as a read-only implication substrate, e.g. the vote
// table). Builds of the pinned live reader are memoized per commit epoch —
// every trial of an epoch patches and rolls back the same build — while any
// other reader gets a fresh single-trial build from the bFresh arena.
//
//bdslint:hotpath
func (sc *scratch) baseBuild(r network.Reader) *netlist.Build {
	if !sc.noOverlay && r == sc.pin {
		if sc.sharedBuild == nil || sc.sharedFor != r || sc.sharedEpoch != sc.epoch {
			sc.sharedBuild = sc.bShared.Build(r)
			sc.sharedFor = r
			sc.sharedEpoch = sc.epoch
		}
		return sc.sharedBuild
	}
	return sc.bFresh.Build(r)
}
