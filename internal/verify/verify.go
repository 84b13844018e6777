// Package verify provides combinational equivalence checking between two
// networks with identical PI/PO interfaces, via 64-way parallel simulation:
// exhaustive for up to ExhaustiveLimit inputs, randomized beyond. Every
// optimization test in this repository goes through it.
package verify

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/network"
)

// ExhaustiveLimit is the PI count up to which checking is exhaustive.
const ExhaustiveLimit = 22

// DefaultRandomWords is the number of 64-pattern words simulated when the
// input space is too large to enumerate.
const DefaultRandomWords = 512

// Result describes an equivalence check.
type Result struct {
	Equivalent bool
	Exhaustive bool
	// FailingPO and FailingPattern describe the first mismatch found.
	FailingPO      string
	FailingPattern map[string]bool
	PatternsTried  int
}

// Equivalent is a convenience wrapper returning only the verdict.
func Equivalent(a, b *network.Network) bool {
	r, err := Check(a, b, 0)
	return err == nil && r.Equivalent
}

// Check compares two networks. randWords overrides DefaultRandomWords when
// positive. An error is returned when the interfaces differ.
func Check(a, b *network.Network, randWords int) (Result, error) {
	pis, err := sameSet("PI", a.PIs(), b.PIs())
	if err != nil {
		return Result{}, err
	}
	pos, err := sameSet("PO", a.POs(), b.POs())
	if err != nil {
		return Result{}, err
	}
	if len(pis) <= ExhaustiveLimit {
		return exhaustive(a, b, pis, pos), nil
	}
	if randWords <= 0 {
		randWords = DefaultRandomWords
	}
	// Random simulation first: cheap counterexamples come out immediately.
	r := randomized(a, b, pis, pos, randWords)
	if !r.Equivalent {
		return r, nil
	}
	// SAT miter for a complete verdict on wide circuits.
	if sr, decided := satCheck(a, b, pis, pos); decided {
		sr.PatternsTried = r.PatternsTried
		return sr, nil
	}
	return r, nil
}

func sameSet(kind string, x, y []string) ([]string, error) {
	xs := append([]string(nil), x...)
	ys := append([]string(nil), y...)
	sort.Strings(xs)
	sort.Strings(ys)
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("verify: %s count mismatch: %d vs %d", kind, len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] != ys[i] {
			return nil, fmt.Errorf("verify: %s mismatch: %q vs %q", kind, xs[i], ys[i])
		}
	}
	return xs, nil
}

func exhaustive(a, b *network.Network, pis, pos []string) Result {
	n := len(pis)
	total := uint64(1) << n
	res := Result{Equivalent: true, Exhaustive: true}
	// Pack 64 consecutive minterms per word: PI i of minterm (base+k) is
	// bit i of (base+k). For i < 6 the pattern within a word is periodic;
	// for i >= 6 it is constant per word.
	var lowMasks [6]uint64
	for i := 0; i < 6; i++ {
		var w uint64
		for k := 0; k < 64; k++ {
			if k>>i&1 == 1 {
				w |= 1 << k
			}
		}
		lowMasks[i] = w
	}
	sa, sb := newWordSim(a, pis, pos), newWordSim(b, pis, pos)
	words := make([]uint64, n)
	for base := uint64(0); base < total; base += 64 {
		for i := range pis {
			if i < 6 {
				words[i] = lowMasks[i]
			} else if base>>uint(i)&1 == 1 {
				words[i] = ^uint64(0)
			} else {
				words[i] = 0
			}
		}
		sa.run(words)
		sb.run(words)
		valid := ^uint64(0)
		if total-base < 64 {
			valid = (uint64(1) << (total - base)) - 1
		}
		for j, po := range pos {
			if d := (sa.po(j) ^ sb.po(j)) & valid; d != 0 {
				k := trailingBit(d)
				res.Equivalent = false
				res.FailingPO = po
				res.FailingPattern = pattern(pis, base+uint64(k))
				res.PatternsTried = int(base) + k + 1
				return res
			}
		}
	}
	res.PatternsTried = int(total)
	return res
}

func randomized(a, b *network.Network, pis, pos []string, words int) Result {
	r := rand.New(rand.NewSource(0x5EED))
	res := Result{Equivalent: true}
	sa, sb := newWordSim(a, pis, pos), newWordSim(b, pis, pos)
	in := make([]uint64, len(pis))
	for w := 0; w < words; w++ {
		for i := range pis {
			in[i] = r.Uint64()
		}
		sa.run(in)
		sb.run(in)
		for j, po := range pos {
			if d := sa.po(j) ^ sb.po(j); d != 0 {
				k := trailingBit(d)
				res.Equivalent = false
				res.FailingPO = po
				res.FailingPattern = map[string]bool{}
				for i, pi := range pis {
					res.FailingPattern[pi] = in[i]>>k&1 == 1
				}
				res.PatternsTried = w*64 + k + 1
				return res
			}
		}
	}
	res.PatternsTried = words * 64
	return res
}

// wordSim simulates one network a 64-pattern word at a time on one reused
// SigID-indexed slice, writing the check's PIs and reading its POs by ID.
type wordSim struct {
	nw       *network.Network
	topo     []network.SigID
	val      []uint64
	pis, pos []network.SigID
}

// newWordSim prepares nw for simulating words over the check's PI and PO
// names, which are nw's own (sameSet checked both interfaces).
func newWordSim(nw *network.Network, pis, pos []string) *wordSim {
	s := &wordSim{
		nw: nw, topo: nw.TopoOrderIDs(), val: make([]uint64, nw.NumSigs()),
		pis: make([]network.SigID, len(pis)), pos: make([]network.SigID, len(pos)),
	}
	for i, pi := range pis {
		s.pis[i], _ = nw.IDOf(pi)
	}
	for j, po := range pos {
		s.pos[j], _ = nw.IDOf(po)
	}
	return s
}

// run simulates the word whose PI i, in the check's order, is in[i].
func (s *wordSim) run(in []uint64) {
	for i, id := range s.pis {
		s.val[id] = in[i]
	}
	s.nw.SimulateInto(s.val, s.topo)
}

// po returns the simulated word of the check's PO j.
func (s *wordSim) po(j int) uint64 { return s.val[s.pos[j]] }

// ShrinkCounterexample greedily simplifies a failing pattern: each PI in
// turn is flipped to false, and the flip is kept when the networks still
// disagree at some PO. The result is a (locally) minimal witness that is
// easier to read when debugging an inequivalence.
func ShrinkCounterexample(a, b *network.Network, pattern map[string]bool) map[string]bool {
	cur := make(map[string]bool, len(pattern))
	for k, v := range pattern {
		cur[k] = v
	}
	disagree := func(p map[string]bool) bool {
		in := map[string]uint64{}
		for _, pi := range a.PIs() {
			in[pi] = 0
		}
		for pi, v := range p {
			if v {
				in[pi] = 1
			}
		}
		va, vb := a.Simulate(in), b.Simulate(in)
		for _, po := range a.POs() {
			if va[po]&1 != vb[po]&1 {
				return true
			}
		}
		return false
	}
	if !disagree(cur) {
		return cur // not actually a counterexample; return unchanged
	}
	pis := append([]string(nil), a.PIs()...)
	sort.Strings(pis)
	for _, pi := range pis {
		if !cur[pi] {
			continue
		}
		cur[pi] = false
		if !disagree(cur) {
			cur[pi] = true
		}
	}
	return cur
}

func trailingBit(w uint64) int {
	for k := 0; k < 64; k++ {
		if w>>k&1 == 1 {
			return k
		}
	}
	return 0
}

func pattern(pis []string, m uint64) map[string]bool {
	out := make(map[string]bool, len(pis))
	for i, pi := range pis {
		out[pi] = m>>uint(i)&1 == 1
	}
	return out
}
