package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebraic"
	"repro/internal/bench"
	"repro/internal/cube"
	"repro/internal/network"
	"repro/internal/verify"
)

// pooledNetwork builds the Fig. 3(c) scenario: the useful divisor a + b does
// not exist in one node; instead g1 = a + e and g2 = b + h exist, and the
// pooled cubes of both expose the core.
func pooledNetwork() *network.Network {
	nw := network.New("pool")
	for _, pi := range []string{"a", "b", "c", "d", "e", "h"} {
		nw.AddPI(pi)
	}
	nw.AddNode("g1", []string{"a", "e"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("g2", []string{"b", "h"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("f", []string{"a", "b", "c", "d"}, cube.ParseCover(4, "a + bc + bd"))
	nw.AddPO("f")
	nw.AddPO("g1")
	nw.AddPO("g2")
	return nw
}

func TestPooledVoteTable(t *testing.T) {
	nw := pooledNetwork()
	votes, pool, _, ok := PooledVoteTable(nw, "f", []string{"g1", "g2"}, Extended)
	if !ok {
		t.Fatal("pooled votes failed")
	}
	if len(pool) != 4 {
		t.Fatalf("pool size = %d, want 4", len(pool))
	}
	// Find the a-cube of g1 and b-cube of g2 in the pool.
	idxOf := func(node string, k int) int {
		for i, pe := range pool {
			if pe.Node == node && pe.CubeIdx == k {
				return i
			}
		}
		return -1
	}
	fn := nw.Node("f")
	// The wire b in cube bc must vote for a candidate spanning both nodes.
	found := false
	for _, v := range votes {
		c := fn.Cover.Cubes[v.CubeIdx]
		if c.NumLits() == 2 && fn.Fanins[v.Var] == "b" {
			found = true
			aBit, bBit := -1, -1
			for k := 0; k < 2; k++ {
				if i := idxOf("g1", k); i >= 0 && nw.Node("g1").Cover.Cubes[k].NumLits() == 1 {
					// g1 cubes: a (var0), e (var1) — find the a cube.
					if nw.Node("g1").Fanins[nw.Node("g1").Cover.Cubes[k].Lits()[0]] == "a" {
						aBit = i
					}
				}
				if i := idxOf("g2", k); i >= 0 && nw.Node("g2").Cover.Cubes[k].NumLits() == 1 {
					if nw.Node("g2").Fanins[nw.Node("g2").Cover.Cubes[k].Lits()[0]] == "b" {
						bBit = i
					}
				}
			}
			if aBit < 0 || bBit < 0 {
				t.Fatal("could not locate pooled cubes")
			}
			if v.Candidate&(1<<aBit) == 0 || v.Candidate&(1<<bBit) == 0 {
				t.Errorf("wire b candidate %b should span both nodes (bits %d, %d)", v.Candidate, aBit, bBit)
			}
		}
	}
	if !found {
		t.Fatal("wire b vote missing")
	}
}

func TestPooledExtendedDivideSound(t *testing.T) {
	nw := pooledNetwork()
	work, res, dec, ok := PooledExtendedDivide(nw, "f", []string{"g1", "g2"}, Extended)
	if !ok {
		t.Skip("no pooled division found (acceptable: standalone core may not form)")
	}
	if !verify.Equivalent(nw, work) {
		t.Fatalf("pooled division broke equivalence:\n%s", work.String())
	}
	if dec != nil && work.Node(dec.CoreName) == nil {
		t.Error("core node vanished")
	}
	if res.WiresRemoved < 1 {
		t.Error("no wires removed")
	}
}

func TestPropPooledSound(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		nw := randomDAG(r, 4, 6)
		names := nw.SortedNodeNames()
		if len(names) < 3 {
			continue
		}
		f := names[r.Intn(len(names))]
		var pool []string
		for _, d := range names {
			if d != f && !nw.DependsOn(d, f) {
				pool = append(pool, d)
			}
			if len(pool) == 3 {
				break
			}
		}
		if len(pool) < 2 {
			continue
		}
		work, _, _, ok := PooledExtendedDivide(nw, f, pool, Extended)
		if !ok {
			continue
		}
		if !verify.Equivalent(nw, work) {
			t.Fatalf("trial %d: pooled division of %s by %v broke equivalence\nbefore: %safter: %s",
				trial, f, pool, nw.String(), work.String())
		}
	}
}

func TestSubstituteWithPooling(t *testing.T) {
	nw := pooledNetwork()
	ref := nw.Clone()
	st := Substitute(nw, Options{Config: Extended, Pool: true})
	if !verify.Equivalent(ref, nw) {
		t.Fatal("equivalence broken")
	}
	if st.LitsAfter > st.LitsBefore {
		t.Errorf("literals grew %d → %d", st.LitsBefore, st.LitsAfter)
	}
}

// TestPooledSkipsSingleNodeCoresThatGainedNothing checks the fact
// planPooled rests on when it plans nothing for a single-node core: the
// pooled fallback runs only when no slot gained, and then a core from one
// pool node d gains nothing either. On every suite circuit it plans each
// dividend's sequence and, where the fallback found a single-node core,
// re-plans that core as d's own division (singleCoreGain), which must not
// gain.
func TestPooledSkipsSingleNodeCoresThatGainedNothing(t *testing.T) {
	skipped := 0
	for _, opt := range []Options{
		{Config: Extended, POS: true, Pool: true},
		{Config: ExtendedGDC, POS: true, Pool: true, WindowDepth: 1},
	} {
		for _, name := range bench.Names() {
			nw := bench.Get(name)
			nw.EnableFanouts()
			nc := newNodeCache(nw)
			for _, f := range nw.SortedNodeNames() {
				seq := trialSeq{f: f, cands: candidateDivisors(nw, nc, f, opt, nil)}
				if _, ok := seq.choose(newScratch(), nw, opt); ok || !seq.pooled {
					continue
				}
				var pool []string
				for _, c := range seq.cands {
					if c.form == formSOP && indexOf(pool, c.name) < 0 && len(pool) < 4 {
						pool = append(pool, c.name)
					}
				}
				if len(pool) < 2 {
					continue
				}
				_, single, ok := pooledExtendedDivide(newScratch(), nw, f, pool, opt.Config)
				if !ok || single == "" {
					continue
				}
				skipped++
				if gain, ok := singleCoreGain(newScratch(), nw, f, single, pool, opt.Config); ok && gain > 0 {
					t.Fatalf("%s %+v f=%s: a skipped single-node pooled core (%s) gains %d", name, opt, f, single, gain)
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no single-node pooled core was skipped on the suite")
	}
	t.Logf("%d single-node pooled cores skipped", skipped)
}

// singleCoreGain plans the pooled division of f whose core comes from pool
// node d alone as d's own division — its extended division of f, or f's
// basic division by d when the core is d's whole cover — and prices it as
// a pooled plan: the gain over f, the core and every pool node.
func singleCoreGain(sc *scratch, nw network.Reader, f, d string, pool []string, cfg Config) (int, bool) {
	x, ok := extendedDivide(sc, nw, f, d, cfg)
	if !ok {
		return 0, false
	}
	if x.whole != "" {
		p, _, ok := wholePlan(sc, nw, f, x.whole, cfg)
		return p.gain, ok
	}
	before := algebraic.FactorLits(nw.Node(f).Cover)
	for _, n := range pool {
		before += algebraic.FactorLits(nw.Node(n).Cover)
	}
	after := 0
	for _, name := range append([]string{f, x.dec.CoreName}, pool...) {
		if n := x.node(nw, name); n != nil {
			after += algebraic.FactorLits(n.Cover)
		}
	}
	return before - after, true
}
