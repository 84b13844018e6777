package core

import (
	"math/bits"

	"repro/internal/algebraic"
	"repro/internal/atpg"
	"repro/internal/cube"
	"repro/internal/network"
)

// Vote is one row of the paper's vote table (Table I): a wire of the
// dividend together with the divisor cubes whose implied value is 0 when
// the wire's stuck-at-1 fault is injected — the wire's candidate core
// divisor. Valid reflects the SOS check against the cube driving the wire.
// A pooled vote table (PooledVoteTable) has the same rows over the pooled
// cubes of several divisors.
type Vote struct {
	// CubeIdx / Var / Phase identify the wire: the literal (Var, Phase) in
	// cube CubeIdx of the dividend, in the dividend's local space.
	CubeIdx int
	Var     int
	Phase   cube.Phase
	// Candidate is a bitmask over the divisor's cubes (bit k = cube k of
	// the divisor, or pool entry k, implied to 0).
	Candidate uint64
	// Valid is the paper's redundancy precondition: the candidate core
	// divisor is an SOS of the cube connected to the wire.
	Valid bool
}

// maxCoreCubes bounds the divisor cube count handled by the bitmask
// machinery; divisors beyond it are truncated (first 64 cubes vote).
const maxCoreCubes = 64

// VoteTable computes the per-wire candidate core divisors for dividing node
// f by node d (Section IV): inject each dividend wire's stuck-at-1 fault,
// run implications, and record the divisor cubes implied to 0. Returns
// ok=false when the pair is structurally unusable.
func VoteTable(nw network.Reader, f, d string, cfg Config) ([]Vote, bool) {
	t, ok := voteTable(newScratch(), nw, f, []string{d}, cfg)
	return t.votes, ok
}

// voteSet is a vote table with the layout it was computed over: the pool
// entries, the union signal space of f and the divisors (the space
// validity is checked in), and f's cover and the voting pool cubes in that
// space — the covers core selection scores against.
type voteSet struct {
	votes     []Vote
	pool      []PoolEntry
	union     []string
	fU        cube.Cover
	poolCubes []cube.Cube
}

// voteTable computes the vote table of f over the pooled cubes of the given
// divisor nodes — single-divisor voting is the pool of one node. The first
// maxCoreCubes pooled cubes vote; bit k of a candidate mask is pool[k].
// The votes are extracted as plain values before the scratch is reused, so
// a single scratch can serve the vote table and the division that follows
// it.
func voteTable(sc *scratch, nw network.Reader, f string, divisors []string, cfg Config) (voteSet, bool) {
	fn := nw.Node(f)
	if fn == nil || len(divisors) == 0 {
		return voteSet{}, false
	}
	union := append([]string(nil), fn.Fanins...)
	for _, d := range divisors {
		dn := nw.Node(d)
		if dn == nil || d == f || nw.DependsOn(d, f) {
			return voteSet{}, false
		}
		union = appendUnion(nil, union, dn.Fanins)
	}

	b := sc.baseBuild(nw)
	nl := b.NL
	ngF := b.Nodes[f]

	opt := atpg.Options{}
	stopAfter := 1
	if cfg == ExtendedGDC {
		opt.Learn = true
		stopAfter = -1
	} else {
		// The scope is a set: the union is the concatenation.
		sc.scope = appendNodeScope(sc.scope[:0], b, nl, f)
		for _, d := range divisors {
			sc.scope = appendNodeScope(sc.scope, b, nl, d)
		}
		opt.Scope = sc.scope
	}
	e := sc.engine(nl, opt)

	// Pool layout and per-entry cube in the union space.
	var pool []PoolEntry
	var poolGates []int
	var poolCubesU []cube.Cube
	for _, d := range divisors {
		dn := nw.Node(d)
		dU := network.RemapCover(dn.Cover, dn.Fanins, union)
		for k := range dn.Cover.Cubes {
			if len(pool) >= maxCoreCubes {
				break
			}
			pool = append(pool, PoolEntry{Node: d, CubeIdx: k})
			poolGates = append(poolGates, b.Nodes[d].Cubes[k])
			poolCubesU = append(poolCubesU, dU.Cubes[k])
		}
	}
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)

	var votes []Vote
	for ci, g := range ngF.Cubes {
		c := fn.Cover.Cubes[ci]
		for pi, v := range c.Lits() {
			vote := Vote{CubeIdx: ci, Var: v, Phase: c.Get(v)}
			e.Reset()
			fault := atpg.Fault{Wire: atpg.Wire{Gate: g, Pin: pi}, Stuck: atpg.One}
			consistent := atpg.MandatoryAssignments(e, nl, fault, stopAfter) && e.Propagate()
			if !consistent {
				// The wire is redundant outright: it supports any core.
				vote.Candidate = maskAll(len(pool))
				vote.Valid = true
				votes = append(votes, vote)
				continue
			}
			for k, pg := range poolGates {
				if e.Val(pg) == atpg.Zero {
					vote.Candidate |= 1 << k
				}
			}
			if vote.Candidate != 0 {
				vote.Valid = candidateValid(vote.Candidate, poolCubesU, fU.Cubes[ci])
			}
			votes = append(votes, vote)
		}
	}
	return voteSet{votes, pool, union, fU, poolCubesU}, true
}

func maskAll(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<n - 1
}

// candidateValid implements the paper's validity filter: the candidate core
// divisor (the masked divisor cubes) must be an SOS of the single cube
// connected to the voting wire — i.e. some masked cube contains it.
func candidateValid(mask uint64, divCubes []cube.Cube, fCube cube.Cube) bool {
	for k := 0; k < len(divCubes) && k < maxCoreCubes; k++ {
		if mask&(1<<k) != 0 && divCubes[k].Contains(fCube) {
			return true
		}
	}
	return false
}

// SelectCore chooses the core divisor from the vote table — the paper's
// maximal-clique step (Fig. 4). Each valid vote's candidate mask is a
// vertex; a set of wires with a common non-empty candidate intersection is
// a clique whose intersection is the core that removes them all. The
// intersection closure of the candidate masks contains every maximal
// clique's core, so scoring each closure element and keeping the best is
// exact up to the closure cap. divCubes are the voting divisor cubes (a
// divisor's cover or a pool's cubes) and fU the dividend, both in the
// union space. Returns the chosen mask and its expected removals (0 mask
// when no useful core exists).
func SelectCore(votes []Vote, divCubes []cube.Cube, fU cube.Cover) (uint64, int) {
	// Distinct candidate masks of valid votes.
	seen := make(map[uint64]bool)
	var masks []uint64
	for _, v := range votes {
		if v.Valid && v.Candidate != 0 && !seen[v.Candidate] {
			seen[v.Candidate] = true
			masks = append(masks, v.Candidate)
		}
	}
	if len(masks) == 0 {
		return 0, 0
	}
	// Intersection closure, capped.
	const closureCap = 512
	for i := 0; i < len(masks) && len(masks) < closureCap; i++ {
		for j := i + 1; j < len(masks) && len(masks) < closureCap; j++ {
			m := masks[i] & masks[j]
			if m != 0 && !seen[m] {
				seen[m] = true
				masks = append(masks, m)
			}
		}
	}
	best, bestScore := uint64(0), 0
	for _, m := range masks {
		score := 0
		for _, v := range votes {
			if !v.Valid || v.Candidate&m != m {
				continue
			}
			// Re-check validity against this specific core.
			if candidateValid(m, divCubes, fU.Cubes[v.CubeIdx]) {
				score++
			}
		}
		if score > bestScore || (score == bestScore && bits.OnesCount64(m) > bits.OnesCount64(best)) {
			best, bestScore = m, score
		}
	}
	return best, bestScore
}

// Decomposition records how a divisor was decomposed for extended division.
type Decomposition struct {
	// CoreName is the new node exposing the core divisor.
	CoreName string
	// CoreMask marks which divisor cubes form the core.
	CoreMask uint64
}

// ExtendedDivide performs extended Boolean division of f by d: it builds the
// vote table, selects a core divisor, decomposes d when the core is a
// proper subset of its cubes, and finishes with basic division by the core
// (Section IV). The returned network is a fully rewritten clone (node f
// replaced; d decomposed when needed); the caller decides acceptance by
// comparing costs. ok=false when no division is possible.
func ExtendedDivide(nw network.Reader, f, d string, cfg Config) (*network.Network, *DivideResult, *Decomposition, bool) {
	sc := oneShot()
	x, ok := extendedDivide(sc, nw, f, d, cfg)
	if !ok {
		return nil, nil, nil, false
	}
	return x.materialize(sc, nw, f, cfg)
}

// extDivision is one extended (or pooled) division of f: the working copy
// holding its edits (an overlay on the copy-on-write path, a deep clone
// under noOverlay or for a pooled cross-node core), f's division by the
// core, and the decomposition. The division ends with a basic division by
// the selected core, so when the core is one whole divisor extended
// division IS f's basic division by it: the division then names that
// divisor in whole, holds nothing else, and leaves the basic division to
// its caller — wholePlan, or at WindowDepth 0 the engine's own basic
// division of the pair.
type extDivision struct {
	work  trialNet
	res   DivideResult
	dec   *Decomposition
	whole string
}

// materialize returns x as the public one-shot wrappers report it: a clone
// of nw with x's edits, or f's whole-divisor division, installed.
func (x extDivision) materialize(sc *scratch, nw network.Reader, f string, cfg Config) (*network.Network, *DivideResult, *Decomposition, bool) {
	var p plan
	if x.whole != "" {
		var ok bool
		if p, x.res, ok = wholePlan(sc, nw, f, x.whole, cfg); !ok {
			return nil, nil, nil, false
		}
	} else {
		p.setWork(x.work)
	}
	return installed(nw, p), &x.res, x.dec, true
}

// wholePlan is the plan of extended division of f whose core is the whole
// divisor d: f's basic division by d over the whole network, installed
// normalized but not minimized. d is unchanged, so the gain is f's alone.
// The division is copied out of the scratch's trial memory first, since
// Normalize may hand back the cover it was given.
func wholePlan(sc *scratch, nw network.Reader, f, d string, cfg Config) (plan, DivideResult, bool) {
	res, ok := divide(sc, nw, nil, f, candidate{name: d}, cfg, 0)
	if !ok {
		return plan{}, DivideResult{}, false
	}
	res.keep()
	fanins, cover := network.Normalize(res.Fanins, res.Cover)
	return plan{
		target:  f,
		gain:    algebraic.FactorLits(nw.Node(f).Cover) - algebraic.FactorLits(cover),
		removed: res.WiresRemoved,
		bodies:  []*network.Node{{Name: f, Fanins: fanins, Cover: cover}},
	}, res, true
}

// extendedDivide is extended division of f by d with an explicit scratch
// arena; ok=false when no division is possible.
func extendedDivide(sc *scratch, nw network.Reader, f, d string, cfg Config) (extDivision, bool) {
	t, ok := voteTable(sc, nw, f, []string{d}, cfg) // fails when f or d drives no node
	if !ok {
		return extDivision{}, false
	}
	dn := nw.Node(d)
	// The pool cubes are d's first maxCoreCubes cubes: exactly the ones
	// SelectCore's validity check reads.
	mask, score := SelectCore(t.votes, t.poolCubes, t.fU)
	if mask == 0 || score == 0 {
		return extDivision{}, false
	}
	nD := dn.Cover.NumCubes()
	if nD > maxCoreCubes {
		nD = maxCoreCubes
	}
	if mask == maskAll(nD) && nD == dn.Cover.NumCubes() {
		return extDivision{whole: d}, true
	}

	// Decompose d = core + rest.
	work := sc.trialClone(nw)
	coreName := work.FreshName("bdc")
	coreCover := cube.NewCover(dn.Cover.NumVars())
	restCover := cube.NewCover(dn.Cover.NumVars())
	for k, c := range dn.Cover.Cubes {
		if k < maxCoreCubes && mask&(1<<k) != 0 {
			coreCover.Cubes = append(coreCover.Cubes, c.Clone())
		} else {
			restCover.Cubes = append(restCover.Cubes, c.Clone())
		}
	}
	work.AddNode(coreName, dn.Fanins, coreCover)
	work.NormalizeNode(coreName)
	// d := core + rest (core as a fresh single-literal cube).
	dFanins := append(append([]string(nil), dn.Fanins...), coreName)
	nd := len(dFanins)
	newD := cube.NewCover(nd)
	for _, c := range restCover.Cubes {
		k := cube.New(nd)
		for _, v := range c.Lits() {
			k.Set(v, c.Get(v))
		}
		newD.Cubes = append(newD.Cubes, k)
	}
	yc := cube.New(nd)
	yc.Set(nd-1, cube.Pos)
	newD.Cubes = append(newD.Cubes, yc)
	if err := work.ReplaceNodeFunction(d, dFanins, newD); err != nil {
		return extDivision{}, false
	}
	work.NormalizeNode(d)

	res, ok := divide(sc, work, nil, f, candidate{name: coreName}, cfg, 0)
	if !ok {
		return extDivision{}, false
	}
	res.keep()
	if err := work.ReplaceNodeFunction(f, res.Fanins, res.Cover); err != nil {
		return extDivision{}, false
	}
	work.NormalizeNode(f)
	return extDivision{work, res, &Decomposition{CoreName: coreName, CoreMask: mask}, ""}, true
}
