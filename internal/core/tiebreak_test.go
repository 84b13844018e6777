package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cube"
	"repro/internal/network"
)

// TestLessScoredFullKey checks the trial-order comparator breaks overlap
// ties by name and then by form, independent of input order: sorting any
// permutation of a tied set must yield one canonical sequence. The old
// comparator keyed on overlap alone and relied on the (unenforced)
// construction order of the candidate list for tie order.
func TestLessScoredFullKey(t *testing.T) {
	canonical := []scored{
		{candidate{name: "deep"}, 3},
		{candidate{name: "apple"}, 2},
		{candidate{name: "apple", form: formCompl}, 2},
		{candidate{name: "apple", form: formPOS}, 2},
		{candidate{name: "banana"}, 2},
		{candidate{name: "banana", form: formPOS}, 2},
		{candidate{name: "zeta"}, 1},
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]scored(nil), canonical...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		slices.SortStableFunc(shuffled, compareScored)
		for i, want := range canonical {
			if got := shuffled[i]; got.c.name != want.c.name || got.c.form != want.c.form || got.overlap != want.overlap {
				t.Fatalf("trial %d: position %d = %+v, want %+v", trial, i, shuffled[i], canonical[i])
			}
		}
	}
}

// TestCandidateDivisorsSortedByFullKey checks the candidate list coming
// out of candidateDivisors is sorted under the full key on a network with
// several equal-overlap divisors in multiple forms.
func TestCandidateDivisorsSortedByFullKey(t *testing.T) {
	nw := network.New("ties")
	for _, pi := range []string{"a", "b", "c", "d", "e"} {
		nw.AddPI(pi)
	}
	// Dividend support {a,b,c,d,e}; every divisor overlaps it by exactly 2.
	nw.AddNode("f", []string{"a", "b", "c", "d", "e"}, cube.ParseCover(5, "ab + cd + e"))
	nw.AddNode("p", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("q", []string{"c", "d"}, cube.ParseCover(2, "ab"))
	nw.AddNode("r", []string{"a", "b"}, cube.ParseCover(2, "a + b"))
	nw.AddNode("s", []string{"c", "d"}, cube.ParseCover(2, "a + b"))
	for _, po := range []string{"f", "p", "q", "r", "s"} {
		nw.AddPO(po)
	}
	opt := Options{Config: Basic, POS: true}
	cands := candidateDivisors(nw, newNodeCache(nw), "f", opt, nil)
	if len(cands) < 2 {
		t.Fatalf("network yields only %d candidate(s); the tie test needs several", len(cands))
	}
	overlap := func(c candidate) int {
		n := 0
		for _, s := range nw.Node(c.name).Fanins {
			if nw.Node("f").FaninIndex(s) >= 0 {
				n++
			}
		}
		return n
	}
	for i := 1; i < len(cands); i++ {
		a := scored{cands[i-1], overlap(cands[i-1])}
		b := scored{cands[i], overlap(cands[i])}
		if compareScored(b, a) < 0 {
			t.Fatalf("candidates %d and %d out of order: %+v before %+v", i-1, i, a, b)
		}
	}
}

// TestBestGainKeepsFirstOfLargestGains pins BestGain's choice: the largest
// gain wins from any slot, and of tied gains the earliest slot does. In
// f = abx + cdy + e, the divisors g = ab and h = cd each save one literal
// and k = abx saves two.
func TestBestGainKeepsFirstOfLargestGains(t *testing.T) {
	nw := network.New("tie")
	for _, pi := range []string{"a", "b", "c", "d", "e", "x", "y"} {
		nw.AddPI(pi)
	}
	nw.AddNode("g", []string{"a", "b"}, cube.ParseCover(2, "ab"))
	nw.AddNode("h", []string{"c", "d"}, cube.ParseCover(2, "ab"))
	nw.AddNode("k", []string{"a", "b", "x"}, cube.ParseCover(3, "abc"))
	nw.AddNode("f", []string{"a", "b", "c", "d", "e", "x", "y"}, cube.ParseCover(7, "abf + cdg + e"))
	for _, po := range []string{"f", "g", "h", "k"} {
		nw.AddPO(po)
	}
	for _, tc := range []struct {
		order []string
		want  string
	}{{[]string{"g", "h"}, "g"}, {[]string{"h", "g"}, "h"}, {[]string{"g", "h", "k"}, "k"}} {
		seq := trialSeq{f: "f"}
		for _, d := range tc.order {
			seq.cands = append(seq.cands, candidate{name: d})
		}
		p, ok := seq.choose(newScratch(), nw, Options{Config: Basic, BestGain: true})
		if !ok {
			t.Fatalf("slots %v: BestGain chose nothing", tc.order)
		}
		if body := p.bodies[0]; body.FaninIndex(tc.want) < 0 {
			t.Errorf("slots %v: BestGain's division reads %v, want the one by %s", tc.order, body.Fanins, tc.want)
		}
	}
}
