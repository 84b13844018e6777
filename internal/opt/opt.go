// Package opt implements the SIS-like network-level commands the paper's
// experimental scripts are made of: simplify (two-level minimization per
// node), algebraic resubstitution (the `resub -d` baseline), greedy common-
// cube extraction (gcx), kernel extraction (gkx), and good decomposition
// (decomp -g). Together with network.Eliminate and network.Sweep these
// reproduce Scripts A/B/C and script.algebraic.
package opt

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/algebraic"
	"repro/internal/cube"
	"repro/internal/mini"
	"repro/internal/network"
)

// SimplifyAll minimizes every node's cover in place (the `simplify`
// command, without don't cares). Returns the literal reduction (SOP).
func SimplifyAll(nw *network.Network) int {
	before := nw.SOPLits()
	for _, n := range nw.Nodes() {
		m := mini.Minimize(n.Cover, mini.Options{})
		if m.NumCubes() <= n.Cover.NumCubes() && m.NumLits() <= n.Cover.NumLits() {
			n.Cover = m
		}
	}
	for _, n := range nw.Nodes() {
		nw.NormalizeNode(n.Name)
	}
	nw.Sweep()
	return before - nw.SOPLits()
}

// ResubAlgebraic performs algebraic resubstitution over the network — the
// SIS `resub -d` baseline: every node is tried as an algebraic divisor of
// every other node, in both phases when useComplement is set (the -d flag).
// Acceptance is locally greedy on factored literals, mirroring the paper's
// acceptance rule for its own algorithm. Returns the substitution count.
func ResubAlgebraic(nw *network.Network, useComplement bool) int {
	return ResubAlgebraicJ(nw, useComplement, 1)
}

// ResubAlgebraicJ is ResubAlgebraic with a bounded worker pool, following
// the same plan/commit split as internal/core's engine: candidate divisors
// for a node are planned concurrently against the read-only network in
// waves of the worker count, then the first positive-gain plan in candidate
// order is committed serially. The committed network is identical at any
// worker count (workers <= 0 selects GOMAXPROCS).
func ResubAlgebraicJ(nw *network.Network, useComplement bool, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	count := 0
	for pass := 0; pass < 2; pass++ {
		changed := false
		names := nw.TopoOrder()
		for i := len(names) - 1; i >= 0; i-- {
			f := names[i]
			fn := nw.Node(f)
			if fn == nil || fn.Cover.IsZero() {
				continue
			}
			var cands []string
			for _, d := range nw.SortedNodeNames() {
				if d == f || nw.DependsOn(d, f) {
					continue
				}
				cands = append(cands, d)
			}
			committed := false
			for start := 0; start < len(cands) && !committed; start += workers {
				end := start + workers
				if end > len(cands) {
					end = len(cands)
				}
				batch := cands[start:end]
				plans := make([][]algPlan, len(batch))
				if workers == 1 || len(batch) == 1 {
					plans[0] = planAlgebraicResub(nw, f, batch[0], useComplement)
				} else {
					var next atomic.Int64
					var wg sync.WaitGroup
					for w := 0; w < workers && w < len(batch); w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for {
								j := int(next.Add(1)) - 1
								if j >= len(batch) {
									return
								}
								plans[j] = planAlgebraicResub(nw, f, batch[j], useComplement)
							}
						}()
					}
					wg.Wait()
				}
				for _, ps := range plans {
					for _, p := range ps {
						if commitAlgPlan(nw, f, p) {
							committed = true
							break // first positive-gain divisor wins
						}
					}
					if committed {
						break
					}
				}
			}
			if committed {
				count++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return count
}

// algPlan is one planned algebraic resubstitution: the replacement node
// function for the dividend, as pure data.
type algPlan struct {
	space []string
	cover cube.Cover
}

// planAlgebraicResub plans f = q·d + r (and the complement-phase variant
// when useComplement is set) without mutating the network. The returned
// plans are in the order the serial driver would have tried them (positive
// phase first); the committer takes the first that applies.
func planAlgebraicResub(nw network.Reader, f, d string, useComplement bool) []algPlan {
	fn, dn := nw.Node(f), nw.Node(d)
	if dn.Cover.IsZero() || (dn.Cover.NumCubes() == 1 && dn.Cover.Cubes[0].IsUniverse()) {
		return nil
	}
	union := unionSignals(fn.Fanins, dn.Fanins)
	fU := network.RemapCover(fn.Cover, fn.Fanins, union)
	dU := network.RemapCover(dn.Cover, dn.Fanins, union)
	before := algebraic.FactorLits(fn.Cover)

	var out []algPlan
	if p, ok := planQuotient(union, fU, dU, d, cube.Pos, before); ok {
		out = append(out, p)
	}
	if useComplement {
		if dc, ok := dn.Cover.ComplementAtMost(24); ok && !dc.IsZero() {
			dcU := network.RemapCover(dc, dn.Fanins, union)
			if p, ok := planQuotient(union, fU, dcU, d, cube.Neg, before); ok {
				out = append(out, p)
			}
		}
	}
	return out
}

// planQuotient divides fU by divisor cover div (representing signal d in
// phase ph) and returns the replacement plan when the gain is positive.
func planQuotient(union []string, fU, div cube.Cover, d string, ph cube.Phase, before int) (algPlan, bool) {
	q, r := algebraic.WeakDivide(fU, div)
	if q.IsZero() {
		return algPlan{}, false
	}
	space := union
	yIdx := indexOf(union, d)
	if yIdx < 0 {
		yIdx = len(space)
		space = append(append([]string(nil), union...), d)
	}
	n := len(space)
	out := cube.NewCover(n)
	for _, c := range q.Cubes {
		k := cube.New(n)
		for _, v := range c.Lits() {
			k.Set(v, c.Get(v))
		}
		if p := k.Get(yIdx); p != cube.Free && p != ph {
			continue
		}
		k.Set(yIdx, ph)
		out.Cubes = append(out.Cubes, k)
	}
	for _, c := range r.Cubes {
		k := cube.New(n)
		for _, v := range c.Lits() {
			k.Set(v, c.Get(v))
		}
		out.Cubes = append(out.Cubes, k)
	}
	out = out.SCC()
	if before-algebraic.FactorLits(out) <= 0 {
		return algPlan{}, false
	}
	return algPlan{space: space, cover: out}, true
}

// commitAlgPlan installs a planned resubstitution. The rewrite is exact in
// the free-variable space: q·d + r equals f algebraically (weak division
// guarantees it; the phase clash filter in planQuotient could in principle
// drop cubes, which ReplaceNodeFunction's validation would reject).
func commitAlgPlan(nw *network.Network, f string, p algPlan) bool {
	if err := nw.ReplaceNodeFunction(f, p.space, p.cover); err != nil {
		return false
	}
	nw.NormalizeNode(f)
	return true
}

// commitQuotient divides fU by divisor cover div (representing signal d in
// phase ph) and commits when the gain is positive — the one-shot
// plan-then-commit used by kernel extraction.
func commitQuotient(nw *network.Network, f, d string, union []string, fU, div cube.Cover, ph cube.Phase, before int) bool {
	p, ok := planQuotient(union, fU, div, d, ph, before)
	if !ok {
		return false
	}
	return commitAlgPlan(nw, f, p)
}

// Gcx performs greedy common-cube extraction: repeatedly find the cube
// (as a set of literals over global signals) occurring in the most node
// cubes, extract it as a new node, and rewrite the occurrences, while the
// SOP literal saving is positive (the SIS `gcx` command). Returns the
// number of cubes extracted.
func Gcx(nw *network.Network) int {
	count := 0
	for iter := 0; iter < 64; iter++ {
		best, occ := bestCommonCube(nw)
		if len(best) < 2 {
			return count
		}
		// saving = occ·(|C|−1) − |C|  (each occurrence shrinks to one
		// literal; the new node costs |C| literals).
		if occ*(len(best)-1)-len(best) <= 0 {
			return count
		}
		extractCube(nw, best)
		count++
	}
	return count
}

// sigLit is a literal over a global signal.
type sigLit struct {
	sig string
	neg bool
}

// bestCommonCube scans all pairs of node cubes for the most valuable shared
// sub-cube.
func bestCommonCube(nw *network.Network) ([]sigLit, int) {
	var all [][]sigLit
	for _, n := range nw.Nodes() {
		for _, c := range n.Cover.Cubes {
			if c.NumLits() >= 2 {
				all = append(all, cubeSigs(c, n.Fanins))
			}
		}
	}
	type cand struct {
		lits []sigLit
		key  string
	}
	seen := make(map[string]bool)
	var cands []cand
	limit := len(all)
	if limit > 400 {
		limit = 400
	}
	for i := 0; i < limit; i++ {
		for j := i + 1; j < len(all); j++ {
			inter := intersectSigs(all[i], all[j])
			if len(inter) < 2 {
				continue
			}
			k := sigKey(inter)
			if !seen[k] {
				seen[k] = true
				cands = append(cands, cand{inter, k})
			}
		}
	}
	bestScore, bestIdx := 0, -1
	for ci, c := range cands {
		occ := 0
		for _, cs := range all {
			if subsetSigs(c.lits, cs) {
				occ++
			}
		}
		score := occ*(len(c.lits)-1) - len(c.lits)
		if score > bestScore {
			bestScore, bestIdx = score, ci
		}
	}
	if bestIdx < 0 {
		return nil, 0
	}
	occ := 0
	for _, cs := range all {
		if subsetSigs(cands[bestIdx].lits, cs) {
			occ++
		}
	}
	return cands[bestIdx].lits, occ
}

// extractCube creates a node for the literal set and rewrites every cube
// containing it.
func extractCube(nw *network.Network, lits []sigLit) string {
	name := nw.FreshName("cx")
	fanins := make([]string, len(lits))
	c := cube.New(len(lits))
	for i, l := range lits {
		fanins[i] = l.sig
		if l.neg {
			c.Set(i, cube.Neg)
		} else {
			c.Set(i, cube.Pos)
		}
	}
	nw.AddNode(name, fanins, cube.CoverOf(len(lits), c))
	for _, n := range nw.Nodes() {
		if n.Name == name {
			continue
		}
		rewriteWithCube(nw, n, lits, name)
	}
	return name
}

// rewriteWithCube replaces occurrences of the literal set inside n's cubes
// with the new signal.
func rewriteWithCube(nw *network.Network, n *network.Node, lits []sigLit, newSig string) {
	occ := false
	for _, c := range n.Cover.Cubes {
		if subsetSigs(lits, cubeSigs(c, n.Fanins)) {
			occ = true
			break
		}
	}
	if !occ {
		return
	}
	if nw.DependsOn(newSig, n.Name) {
		return
	}
	space := append([]string(nil), n.Fanins...)
	yIdx := indexOf(space, newSig)
	if yIdx < 0 {
		yIdx = len(space)
		space = append(space, newSig)
	}
	out := cube.NewCover(len(space))
	for _, c := range n.Cover.Cubes {
		k := cube.New(len(space))
		for _, v := range c.Lits() {
			k.Set(v, c.Get(v))
		}
		if subsetSigs(lits, cubeSigs(c, n.Fanins)) {
			for _, l := range lits {
				k.Set(indexOf(n.Fanins, l.sig), cube.Free)
			}
			k.Set(yIdx, cube.Pos)
		}
		out.Cubes = append(out.Cubes, k)
	}
	if err := nw.ReplaceNodeFunction(n.Name, space, out.SCC()); err != nil {
		return
	}
	nw.NormalizeNode(n.Name)
}

// Gkx performs greedy kernel extraction (the SIS `gkx` command):
// repeatedly pick the kernel with the best network-wide SOP literal saving,
// extract it as a node, and resubstitute it algebraically. Returns the
// number of kernels extracted.
func Gkx(nw *network.Network) int {
	count := 0
	for iter := 0; iter < 64; iter++ {
		k, gain := bestKernel(nw)
		if gain <= 0 {
			return count
		}
		extractKernel(nw, k)
		count++
	}
	return count
}

// globalKernel is a kernel lifted to global signal space.
type globalKernel struct {
	fanins []string
	cover  cube.Cover
}

// bestKernel evaluates candidate kernels network-wide.
func bestKernel(nw *network.Network) (globalKernel, int) {
	seen := make(map[string]globalKernel)
	for _, n := range nw.Nodes() {
		for _, k := range algebraic.Kernels(n.Cover, 40) {
			if k.K.NumCubes() < 2 {
				continue
			}
			gk := liftKernel(k.K, n.Fanins)
			seen[gkKey(gk)] = gk
		}
	}
	var bestK globalKernel
	bestGain := 0
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		gk := seen[key]
		gain := -gk.cover.NumLits() // cost of the new node
		for _, n := range nw.Nodes() {
			union := unionSignals(n.Fanins, gk.fanins)
			fU := network.RemapCover(n.Cover, n.Fanins, union)
			kU := network.RemapCover(gk.cover, gk.fanins, union)
			q, r := algebraic.WeakDivide(fU, kU)
			if q.IsZero() {
				continue
			}
			after := q.NumLits() + q.NumCubes() + r.NumLits()
			if d := n.Cover.NumLits() - after; d > 0 {
				gain += d
			}
		}
		if gain > bestGain {
			bestGain, bestK = gain, gk
		}
	}
	return bestK, bestGain
}

func liftKernel(k cube.Cover, fanins []string) globalKernel {
	used := k.Support()
	sigs := make([]string, len(used))
	idx := make(map[int]int)
	for i, v := range used {
		sigs[i] = fanins[v]
		idx[v] = i
	}
	out := cube.NewCover(len(used))
	for _, c := range k.Cubes {
		kk := cube.New(len(used))
		for _, v := range c.Lits() {
			kk.Set(idx[v], c.Get(v))
		}
		out.Cubes = append(out.Cubes, kk)
	}
	return globalKernel{fanins: sigs, cover: out}
}

func gkKey(gk globalKernel) string {
	// Render cubes as sorted signal-literal strings.
	var rows []string
	for _, c := range gk.cover.Cubes {
		rows = append(rows, sigKey(cubeSigs(c, gk.fanins)))
	}
	sort.Strings(rows)
	out := ""
	for _, r := range rows {
		out += r + "|"
	}
	return out
}

// extractKernel creates a node for the kernel and algebraically
// resubstitutes it into every node where it divides with gain.
func extractKernel(nw *network.Network, gk globalKernel) {
	name := nw.FreshName("kx")
	nw.AddNode(name, gk.fanins, gk.cover.Clone())
	for _, n := range nw.Nodes() {
		if n.Name == name || nw.DependsOn(name, n.Name) {
			continue
		}
		union := unionSignals(n.Fanins, gk.fanins)
		fU := network.RemapCover(n.Cover, n.Fanins, union)
		kU := network.RemapCover(gk.cover, gk.fanins, union)
		before := n.Cover.NumLits()
		q, r := algebraic.WeakDivide(fU, kU)
		if q.IsZero() {
			continue
		}
		if q.NumLits()+q.NumCubes()+r.NumLits() >= before {
			continue
		}
		commitQuotient(nw, n.Name, name, union, fU, kU, cube.Pos, algebraic.FactorLits(n.Cover)+1)
	}
	nw.Sweep()
}

// Decomp breaks large nodes into their algebraic factored structure (the
// SIS `decomp -g` command): the factor tree of each node is materialized,
// every nested OR-factor becoming its own node. The total SOP literal count
// of the pieces equals the node's factored-form literal count, so Decomp
// never increases the factored-literal total. Returns the number of nodes
// created.
func Decomp(nw *network.Network) int {
	created := 0
	for _, n := range nw.Nodes() {
		e := algebraic.Factor(n.Cover)
		if !hasNestedOr(e) {
			continue
		}
		cover, fanins, k := materialize(nw, e, n.Fanins)
		created += k
		if err := nw.ReplaceNodeFunction(n.Name, fanins, cover); err != nil {
			continue
		}
		nw.NormalizeNode(n.Name)
	}
	nw.Sweep()
	return created
}

// hasNestedOr reports whether the factor tree contains an OR below an AND —
// i.e. whether materializing it would actually create structure.
func hasNestedOr(e *algebraic.Expr) bool {
	if e.Kind == algebraic.KAnd {
		for _, a := range e.Args {
			if a.Kind == algebraic.KOr {
				return true
			}
			if hasNestedOr(a) {
				return true
			}
		}
	}
	if e.Kind == algebraic.KOr {
		for _, a := range e.Args {
			if hasNestedOr(a) {
				return true
			}
		}
	}
	return false
}

// materialize converts a factor tree into a cover over (possibly extended)
// fanins, creating a node for every nested OR-factor. Returns the cover,
// the fanin list it is over, and the number of nodes created.
func materialize(nw *network.Network, e *algebraic.Expr, fanins []string) (cube.Cover, []string, int) {
	created := 0
	// Each cube is described as a list of signal literals; nested ORs are
	// materialized into nodes and appear as positive literals.
	var product func(e *algebraic.Expr) []sigLit
	var newSignal func(sub *algebraic.Expr) string
	product = func(e *algebraic.Expr) []sigLit {
		switch e.Kind {
		case algebraic.KLit:
			return []sigLit{{fanins[e.Var], e.Phase == cube.Neg}}
		case algebraic.KAnd:
			var out []sigLit
			for _, a := range e.Args {
				out = append(out, product(a)...)
			}
			return out
		case algebraic.KOr:
			return []sigLit{{newSignal(e), false}}
		default: // KConst true: empty product; false never reaches here
			return nil
		}
	}
	newSignal = func(sub *algebraic.Expr) string {
		subCover, subFanins, k := materialize(nw, sub, fanins)
		created += k
		name := nw.FreshName("dg")
		nw.AddNode(name, subFanins, subCover)
		nw.NormalizeNode(name)
		created++
		return name
	}

	var rows [][]sigLit
	switch e.Kind {
	case algebraic.KConst:
		if e.Val {
			rows = [][]sigLit{nil}
		}
	case algebraic.KOr:
		for _, a := range e.Args {
			rows = append(rows, product(a))
		}
	default:
		rows = [][]sigLit{product(e)}
	}

	// Assemble the cover over the union of signals used.
	var sigs []string
	idx := make(map[string]int)
	for _, row := range rows {
		for _, l := range row {
			if _, ok := idx[l.sig]; !ok {
				idx[l.sig] = len(sigs)
				sigs = append(sigs, l.sig)
			}
		}
	}
	cov := cube.NewCover(len(sigs))
	for _, row := range rows {
		c := cube.New(len(sigs))
		ok := true
		for _, l := range row {
			ph := cube.Pos
			if l.neg {
				ph = cube.Neg
			}
			if p := c.Get(idx[l.sig]); p != cube.Free && p != ph {
				ok = false // x·x' inside one product: empty cube
				break
			}
			c.Set(idx[l.sig], ph)
		}
		if ok {
			cov.Cubes = append(cov.Cubes, c)
		}
	}
	return cov, sigs, created
}

// --- helpers shared with internal/core kept local to avoid exporting ---

func cubeSigs(c cube.Cube, fanins []string) []sigLit {
	var row []sigLit
	for _, v := range c.Lits() {
		row = append(row, sigLit{fanins[v], c.Get(v) == cube.Neg})
	}
	sort.Slice(row, func(i, j int) bool {
		if row[i].sig != row[j].sig {
			return row[i].sig < row[j].sig
		}
		return !row[i].neg
	})
	return row
}

func intersectSigs(a, b []sigLit) []sigLit {
	var out []sigLit
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case less(a[i], b[j]):
			i++
		default:
			j++
		}
	}
	return out
}

func less(a, b sigLit) bool {
	if a.sig != b.sig {
		return a.sig < b.sig
	}
	return !a.neg && b.neg
}

func subsetSigs(a, b []sigLit) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

func sigKey(ls []sigLit) string {
	out := ""
	for _, l := range ls {
		out += l.sig
		if l.neg {
			out += "'"
		}
		out += " "
	}
	return out
}

func unionSignals(a, b []string) []string {
	out := append([]string(nil), a...)
	seen := make(map[string]bool, len(a))
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}
