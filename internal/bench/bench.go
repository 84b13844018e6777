// Package bench provides the deterministic benchmark circuit suite used by
// the experiment harness. The paper evaluates on MCNC and ISCAS circuits;
// those netlists are not redistributable here, so the suite substitutes
// constructive circuits spanning the same structural regimes — arithmetic
// with carry chains (adders, ALU slice), comparators, parity/symmetric
// trees, decoders and muxes, the public-domain ISCAS C17, seeded
// reconvergent random logic, and wide two-level PLA-style functions. Real
// BLIF benchmarks drop in unchanged through internal/blif (see cmd/bdsopt).
package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cube"
	"repro/internal/network"
)

// Suite returns the full benchmark set in a fixed order. Every call builds
// fresh networks (they are mutated by optimization).
func Suite() []*network.Network {
	names := Names()
	out := make([]*network.Network, len(names))
	for i, n := range names {
		out[i] = Get(n)
	}
	return out
}

// Names lists the benchmark names in report order.
func Names() []string {
	return []string{
		"c17", "ripple4", "ripple8", "csel8", "cmp8", "par9", "sym6",
		"dec4", "mux8", "alu2", "maj5", "mult3", "rnd_a", "rnd_b", "rnd_c",
		"rnd_d", "rnd_e", "pla_a", "pla_b", "pla_c", "synth_a", "synth_b", "synth_c",
	}
}

// Get builds one benchmark by name; it panics on unknown names (the set is
// static and enumerated by Names).
func Get(name string) *network.Network {
	switch name {
	case "c17":
		return c17()
	case "ripple4":
		return ripple(4)
	case "ripple8":
		return ripple(8)
	case "csel8":
		return carrySelect(8)
	case "cmp8":
		return comparator(8)
	case "par9":
		return parity(9)
	case "sym6":
		return symmetric6()
	case "dec4":
		return decoder(4)
	case "mux8":
		return mux(3)
	case "alu2":
		return alu2()
	case "maj5":
		return majority5()
	case "mult3":
		return multiplier(3)
	case "rnd_a":
		return randomLogic("rnd_a", 8, 24, 101)
	case "rnd_b":
		return randomLogic("rnd_b", 10, 36, 202)
	case "rnd_c":
		return randomLogic("rnd_c", 9, 30, 303)
	case "rnd_d":
		return randomLogic("rnd_d", 12, 48, 606)
	case "rnd_e":
		return randomLogic("rnd_e", 14, 72, 1001)
	case "pla_a":
		return pla("pla_a", 7, 4, 12, 404)
	case "pla_b":
		return pla("pla_b", 8, 5, 16, 505)
	case "pla_c":
		return pla("pla_c", 10, 6, 22, 707)
	case "synth_a":
		return structured("synth_a", 8, 3, 5, 808)
	case "synth_b":
		return structured("synth_b", 9, 4, 6, 909)
	case "synth_c":
		return structured("synth_c", 12, 6, 12, 1102)
	default:
		panic("bench: unknown benchmark " + name)
	}
}

// Custom builds a seeded reconvergent random circuit of the given size —
// for scalability tests beyond the fixed suite.
func Custom(nPI, nNodes int, seed int64) *network.Network {
	return randomLogic(fmt.Sprintf("custom_%d_%d", nPI, nNodes), nPI, nNodes, seed)
}

// Generate builds one corpus circuit of the requested shape and size — the
// parameterized large-circuit generator behind cmd/blifgen and the scaling
// benchmarks. Shapes span the structural regimes that stress the engine
// differently:
//
//   - "rand": one seeded reconvergent random DAG over pis inputs (default
//     64) — globally entangled cones, the batch scheduler's worst case.
//   - "adder": a ripple-carry adder sized to ~gates nodes — one maximal
//     carry chain, so every node's fanout cone reaches the end of the
//     chain (deep-TFO pathology).
//   - "mult": an array multiplier sized to ~gates nodes — 2-D carry
//     structure, wide middle columns.
//   - "cone": a forest of independent random control cones over private
//     inputs — many pairwise-disjoint cones, the batch scheduler's best
//     case and the shape the scaling floors are measured on.
//
// Every shape is fully seeded where randomness applies ("rand", "cone"),
// so a committed (shape, gates, pis, seed) recipe regenerates the exact
// same circuit; "adder" and "mult" are structurally determined by gates
// alone and ignore pis and seed.
func Generate(shape string, gates, pis int, seed int64) (*network.Network, error) {
	if gates <= 0 {
		return nil, fmt.Errorf("bench: shape %q needs a positive gate count, got %d", shape, gates)
	}
	switch shape {
	case "rand":
		if pis <= 0 {
			pis = 64
		}
		return Custom(pis, gates, seed), nil
	case "adder":
		n := gates / 2 // ripple(n) has 2n nodes (sum+carry per bit)
		if n < 1 {
			n = 1
		}
		return ripple(n), nil
	case "mult":
		// multiplier(n) has n² partial products plus ~2(n²−2n) adder cells,
		// ≈3n² nodes; invert for n.
		n := 2
		for (n+1)*(n+1)*3 <= gates {
			n++
		}
		return multiplier(n), nil
	case "cone":
		return coneForest(fmt.Sprintf("cone_%d_%d", gates, seed), gates, seed), nil
	default:
		return nil, fmt.Errorf("bench: unknown shape %q (want adder, mult, rand, or cone)", shape)
	}
}

// c17 is the ISCAS-85 C17 circuit (6 NAND gates), public domain.
func c17() *network.Network {
	nw := network.New("c17")
	for _, pi := range []string{"i1", "i2", "i3", "i6", "i7"} {
		nw.AddPI(pi)
	}
	nand := func(name, x, y string) {
		nw.AddNode(name, []string{x, y}, cube.ParseCover(2, "a' + b'"))
	}
	nand("g10", "i1", "i3")
	nand("g11", "i3", "i6")
	nand("g16", "i2", "g11")
	nand("g19", "g11", "i7")
	nand("g22", "g10", "g16")
	nand("g23", "g16", "g19")
	nw.AddPO("g22")
	nw.AddPO("g23")
	return nw
}

// ripple builds an n-bit ripple-carry adder.
func ripple(n int) *network.Network {
	nw := network.New(fmt.Sprintf("ripple%d", n))
	for i := 0; i < n; i++ {
		nw.AddPI(fmt.Sprintf("a%d", i))
		nw.AddPI(fmt.Sprintf("b%d", i))
	}
	nw.AddPI("cin")
	carry := "cin"
	for i := 0; i < n; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		s := fmt.Sprintf("s%d", i)
		c := fmt.Sprintf("c%d", i+1)
		// sum = a ⊕ b ⊕ cin (4 minterms), carry = majority.
		nw.AddNode(s, []string{a, b, carry},
			cube.ParseCover(3, "abc + ab'c' + a'bc' + a'b'c"))
		nw.AddNode(c, []string{a, b, carry},
			cube.ParseCover(3, "ab + ac + bc"))
		nw.AddPO(s)
		carry = c
	}
	nw.AddPO(carry)
	return nw
}

// carrySelect builds an n-bit adder from two n/2 ripple halves with the
// upper half duplicated for carry 0/1 and muxed — heavy sharing potential.
func carrySelect(n int) *network.Network {
	nw := network.New(fmt.Sprintf("csel%d", n))
	for i := 0; i < n; i++ {
		nw.AddPI(fmt.Sprintf("a%d", i))
		nw.AddPI(fmt.Sprintf("b%d", i))
	}
	half := n / 2
	sum := "abc + ab'c' + a'bc' + a'b'c"
	maj := "ab + ac + bc"
	// Lower half with cin = 0: s = a ⊕ b, first carry = ab.
	nw.AddNode("l_s0", []string{"a0", "b0"}, cube.ParseCover(2, "ab' + a'b"))
	nw.AddNode("l_c1", []string{"a0", "b0"}, cube.ParseCover(2, "ab"))
	nw.AddPO("l_s0")
	carry := "l_c1"
	for i := 1; i < half; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		s, c := fmt.Sprintf("l_s%d", i), fmt.Sprintf("l_c%d", i+1)
		nw.AddNode(s, []string{a, b, carry}, cube.ParseCover(3, sum))
		nw.AddNode(c, []string{a, b, carry}, cube.ParseCover(3, maj))
		nw.AddPO(s)
		carry = c
	}
	sel := carry // carry out of the lower half selects
	// Upper half, two variants: cin fixed to 0 and 1.
	for v := 0; v <= 1; v++ {
		pfx := fmt.Sprintf("u%d", v)
		var c string
		for i := half; i < n; i++ {
			a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
			s := fmt.Sprintf("%s_s%d", pfx, i)
			nc := fmt.Sprintf("%s_c%d", pfx, i+1)
			if i == half {
				if v == 0 {
					nw.AddNode(s, []string{a, b}, cube.ParseCover(2, "ab' + a'b"))
					nw.AddNode(nc, []string{a, b}, cube.ParseCover(2, "ab"))
				} else {
					nw.AddNode(s, []string{a, b}, cube.ParseCover(2, "ab + a'b'"))
					nw.AddNode(nc, []string{a, b}, cube.ParseCover(2, "a + b"))
				}
			} else {
				nw.AddNode(s, []string{a, b, c}, cube.ParseCover(3, sum))
				nw.AddNode(nc, []string{a, b, c}, cube.ParseCover(3, maj))
			}
			c = nc
		}
	}
	// Mux the two upper variants with sel.
	for i := half; i < n; i++ {
		s := fmt.Sprintf("s%d", i)
		nw.AddNode(s, []string{sel, fmt.Sprintf("u0_s%d", i), fmt.Sprintf("u1_s%d", i)},
			cube.ParseCover(3, "a'b + ac"))
		nw.AddPO(s)
	}
	nw.AddNode("cout", []string{sel, fmt.Sprintf("u0_c%d", n), fmt.Sprintf("u1_c%d", n)},
		cube.ParseCover(3, "a'b + ac"))
	nw.AddPO("cout")
	return nw
}

// comparator builds an n-bit magnitude comparator with eq and lt outputs,
// as a chain of bit-slice nodes.
func comparator(n int) *network.Network {
	nw := network.New(fmt.Sprintf("cmp%d", n))
	for i := 0; i < n; i++ {
		nw.AddPI(fmt.Sprintf("a%d", i))
		nw.AddPI(fmt.Sprintf("b%d", i))
	}
	// From MSB down: eq_i = eq_{i+1}·(a_i ⊙ b_i); lt_i = lt_{i+1} + eq_{i+1}·a'_i·b_i.
	eq, lt := "", ""
	for i := n - 1; i >= 0; i-- {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		xe := fmt.Sprintf("eq%d", i)
		xl := fmt.Sprintf("lt%d", i)
		if eq == "" {
			nw.AddNode(xe, []string{a, b}, cube.ParseCover(2, "ab + a'b'"))
			nw.AddNode(xl, []string{a, b}, cube.ParseCover(2, "a'b"))
		} else {
			nw.AddNode(xe, []string{eq, a, b}, cube.ParseCover(3, "abc + ab'c'"))
			nw.AddNode(xl, []string{lt, eq, a, b}, cube.ParseCover(4, "a + bc'd"))
		}
		eq, lt = xe, xl
	}
	nw.AddPO(eq)
	nw.AddPO(lt)
	return nw
}

// parity builds an n-input odd-parity tree of 2-input XOR nodes.
func parity(n int) *network.Network {
	nw := network.New(fmt.Sprintf("par%d", n))
	var layer []string
	for i := 0; i < n; i++ {
		pi := fmt.Sprintf("x%d", i)
		nw.AddPI(pi)
		layer = append(layer, pi)
	}
	k := 0
	for len(layer) > 1 {
		var next []string
		for i := 0; i+1 < len(layer); i += 2 {
			name := fmt.Sprintf("p%d", k)
			k++
			nw.AddNode(name, []string{layer[i], layer[i+1]}, cube.ParseCover(2, "ab' + a'b"))
			next = append(next, name)
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
	}
	nw.AddPO(layer[0])
	return nw
}

// symmetric6 computes the 9sym-style symmetric function "between 2 and 4 of
// the 6 inputs are 1", via a small counting network.
func symmetric6() *network.Network {
	nw := network.New("sym6")
	var xs []string
	for i := 0; i < 6; i++ {
		pi := fmt.Sprintf("x%d", i)
		nw.AddPI(pi)
		xs = append(xs, pi)
	}
	// Pairwise: count each pair into (hi = both, lo = exactly one).
	for p := 0; p < 3; p++ {
		a, b := xs[2*p], xs[2*p+1]
		nw.AddNode(fmt.Sprintf("hi%d", p), []string{a, b}, cube.ParseCover(2, "ab"))
		nw.AddNode(fmt.Sprintf("lo%d", p), []string{a, b}, cube.ParseCover(2, "ab' + a'b"))
	}
	// For each pair, count ∈ {0,1,2} encoded by (hi, lo). Sum of three
	// pairs ∈ [2,4]: expand over pair counts with a two-level node per
	// combination, then OR. Enumerate all (c0,c1,c2) with 2 ≤ Σ ≤ 4.
	var terms []string
	idx := 0
	for c0 := 0; c0 <= 2; c0++ {
		for c1 := 0; c1 <= 2; c1++ {
			for c2 := 0; c2 <= 2; c2++ {
				s := c0 + c1 + c2
				if s < 2 || s > 4 {
					continue
				}
				name := fmt.Sprintf("t%d", idx)
				idx++
				// Node over hi0 lo0 hi1 lo1 hi2 lo2: each pair count c maps
				// to a literal pattern: 0 → hi'lo', 1 → lo, 2 → hi.
				c := cube.New(6)
				set := func(p, cnt int) {
					switch cnt {
					case 0:
						c.Set(2*p, cube.Neg)
						c.Set(2*p+1, cube.Neg)
					case 1:
						c.Set(2*p+1, cube.Pos)
					case 2:
						c.Set(2*p, cube.Pos)
					}
				}
				set(0, c0)
				set(1, c1)
				set(2, c2)
				nw.AddNode(name, []string{"hi0", "lo0", "hi1", "lo1", "hi2", "lo2"},
					cube.CoverOf(6, c))
				terms = append(terms, name)
			}
		}
	}
	out := cube.NewCover(len(terms))
	for i := range terms {
		c := cube.New(len(terms))
		c.Set(i, cube.Pos)
		out.Add(c)
	}
	nw.AddNode("f", terms, out)
	nw.AddPO("f")
	return nw
}

// decoder builds an n-to-2^n decoder.
func decoder(n int) *network.Network {
	nw := network.New(fmt.Sprintf("dec%d", n))
	fanins := make([]string, n)
	for i := 0; i < n; i++ {
		fanins[i] = fmt.Sprintf("s%d", i)
		nw.AddPI(fanins[i])
	}
	for m := 0; m < 1<<n; m++ {
		c := cube.New(n)
		for i := 0; i < n; i++ {
			if m>>i&1 == 1 {
				c.Set(i, cube.Pos)
			} else {
				c.Set(i, cube.Neg)
			}
		}
		name := fmt.Sprintf("o%d", m)
		nw.AddNode(name, fanins, cube.CoverOf(n, c))
		nw.AddPO(name)
	}
	return nw
}

// mux builds a 2^k:1 multiplexer with k select lines.
func mux(k int) *network.Network {
	nw := network.New(fmt.Sprintf("mux%d", 1<<k))
	n := 1 << k
	fanins := make([]string, 0, k+n)
	for i := 0; i < k; i++ {
		s := fmt.Sprintf("s%d", i)
		nw.AddPI(s)
		fanins = append(fanins, s)
	}
	for i := 0; i < n; i++ {
		d := fmt.Sprintf("d%d", i)
		nw.AddPI(d)
		fanins = append(fanins, d)
	}
	cov := cube.NewCover(k + n)
	for m := 0; m < n; m++ {
		c := cube.New(k + n)
		for i := 0; i < k; i++ {
			if m>>i&1 == 1 {
				c.Set(i, cube.Pos)
			} else {
				c.Set(i, cube.Neg)
			}
		}
		c.Set(k+m, cube.Pos)
		cov.Add(c)
	}
	nw.AddNode("f", fanins, cov)
	nw.AddPO("f")
	return nw
}

// alu2 builds a 2-bit ALU slice: mode-selected AND/OR/XOR/ADD.
func alu2() *network.Network {
	nw := network.New("alu2")
	for _, pi := range []string{"m0", "m1", "a0", "a1", "b0", "b1", "cin"} {
		nw.AddPI(pi)
	}
	ops := []struct{ name, expr string }{
		{"and0", "ab"}, {"or0", "a + b"}, {"xor0", "ab' + a'b"},
	}
	for _, op := range ops {
		nw.AddNode(op.name, []string{"a0", "b0"}, cube.ParseCover(2, op.expr))
		nw.AddNode(op.name[:len(op.name)-1]+"1", []string{"a1", "b1"}, cube.ParseCover(2, op.expr))
	}
	nw.AddNode("sum0", []string{"a0", "b0", "cin"},
		cube.ParseCover(3, "abc + ab'c' + a'bc' + a'b'c"))
	nw.AddNode("car1", []string{"a0", "b0", "cin"}, cube.ParseCover(3, "ab + ac + bc"))
	nw.AddNode("sum1", []string{"a1", "b1", "car1"},
		cube.ParseCover(3, "abc + ab'c' + a'bc' + a'b'c"))
	// Output mux per bit: m1m0 selects and/or/xor/add.
	for bit := 0; bit <= 1; bit++ {
		b := fmt.Sprintf("%d", bit)
		nw.AddNode("f"+b, []string{"m0", "m1", "and" + b, "or" + b, "xor" + b, "sum" + b},
			cube.ParseCover(6, "a'b'c + ab'd + a'be + abf"))
		nw.AddPO("f" + b)
	}
	nw.AddNode("cout", []string{"a1", "b1", "car1"}, cube.ParseCover(3, "ab + ac + bc"))
	nw.AddPO("cout")
	return nw
}

// majority5 computes the 5-input majority with intermediate 2-of-3 nodes.
func majority5() *network.Network {
	nw := network.New("maj5")
	for i := 0; i < 5; i++ {
		nw.AddPI(fmt.Sprintf("x%d", i))
	}
	// Direct SOP of all 3-subsets, as a single wide node plus helper pairs.
	var pairs []string
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			name := fmt.Sprintf("p%d%d", i, j)
			nw.AddNode(name, []string{fmt.Sprintf("x%d", i), fmt.Sprintf("x%d", j)},
				cube.ParseCover(2, "ab"))
			pairs = append(pairs, name)
		}
	}
	// maj = OR over pairs ANDed with a third distinct input, collapsed:
	// simply OR of pij·xk for k∉{i,j}: build as one node over pairs+inputs.
	fanins := append([]string(nil), pairs...)
	for i := 0; i < 5; i++ {
		fanins = append(fanins, fmt.Sprintf("x%d", i))
	}
	cov := cube.NewCover(len(fanins))
	pidx := map[string]int{}
	for i, p := range pairs {
		pidx[p] = i
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			for k := 0; k < 5; k++ {
				if k == i || k == j {
					continue
				}
				c := cube.New(len(fanins))
				c.Set(pidx[fmt.Sprintf("p%d%d", i, j)], cube.Pos)
				c.Set(len(pairs)+k, cube.Pos)
				cov.Add(c)
			}
		}
	}
	nw.AddNode("maj", fanins, cov.SCC())
	nw.AddPO("maj")
	return nw
}

// multiplier builds an n×n array multiplier: an AND matrix of partial
// products reduced by ripple rows of half/full adders.
func multiplier(n int) *network.Network {
	nw := network.New(fmt.Sprintf("mult%d", n))
	for i := 0; i < n; i++ {
		nw.AddPI(fmt.Sprintf("a%d", i))
		nw.AddPI(fmt.Sprintf("b%d", i))
	}
	// Partial products.
	pp := make([][]string, n)
	for i := 0; i < n; i++ {
		pp[i] = make([]string, n)
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("pp%d%d", i, j)
			nw.AddNode(name, []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", j)},
				cube.ParseCover(2, "ab"))
			pp[i][j] = name
		}
	}
	xor2 := cube.ParseCover(2, "ab' + a'b")
	and2 := cube.ParseCover(2, "ab")
	xor3 := cube.ParseCover(3, "abc + ab'c' + a'bc' + a'b'c")
	maj3 := cube.ParseCover(3, "ab + ac + bc")
	cnt := 0
	half := func(x, y string) (sum, carry string) {
		s := fmt.Sprintf("hs%d", cnt)
		c := fmt.Sprintf("hc%d", cnt)
		cnt++
		nw.AddNode(s, []string{x, y}, xor2.Clone())
		nw.AddNode(c, []string{x, y}, and2.Clone())
		return s, c
	}
	full := func(x, y, z string) (sum, carry string) {
		s := fmt.Sprintf("fs%d", cnt)
		c := fmt.Sprintf("fc%d", cnt)
		cnt++
		nw.AddNode(s, []string{x, y, z}, xor3.Clone())
		nw.AddNode(c, []string{x, y, z}, maj3.Clone())
		return s, c
	}
	// Column-wise reduction: columns of the product p_k = Σ pp[i][k-i].
	cols := make([][]string, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cols[i+j] = append(cols[i+j], pp[i][j])
		}
	}
	for k := 0; k < 2*n; k++ {
		for len(cols[k]) > 1 {
			if len(cols[k]) == 2 {
				s, c := half(cols[k][0], cols[k][1])
				cols[k] = []string{s}
				if k+1 < 2*n {
					cols[k+1] = append(cols[k+1], c)
				}
			} else {
				s, c := full(cols[k][0], cols[k][1], cols[k][2])
				cols[k] = append([]string{s}, cols[k][3:]...)
				if k+1 < 2*n {
					cols[k+1] = append(cols[k+1], c)
				}
			}
		}
		if len(cols[k]) == 1 {
			po := fmt.Sprintf("p%d", k)
			nw.AddNode(po, []string{cols[k][0]}, cube.ParseCover(1, "a"))
			nw.AddPO(po)
		}
	}
	return nw
}

// randomLogic builds a seeded reconvergent random DAG.
func randomLogic(name string, nPI, nNode int, seed int64) *network.Network {
	r := rand.New(rand.NewSource(seed))
	nw := network.New(name)
	var signals []string
	for i := 0; i < nPI; i++ {
		pi := fmt.Sprintf("x%d", i)
		nw.AddPI(pi)
		signals = append(signals, pi)
	}
	growRandom(nw, r, "n", signals, nPI, nNode)
	addSinkPOs(nw)
	return nw
}

// growRandom appends nNode random reconvergent nodes named prefix+index to
// nw, drawing fanins from signals (whose first nPI entries are treated as
// the input layer for the recency bias). Shared by randomLogic and
// coneForest; the RNG consumption here is load-bearing for the committed
// suite circuits — do not reorder draws.
func growRandom(nw *network.Network, r *rand.Rand, prefix string, signals []string, nPI, nNode int) []string {
	for i := 0; i < nNode; i++ {
		k := 2 + r.Intn(3)
		if k > len(signals) {
			k = len(signals)
		}
		// Bias fanin choice toward recent signals for reconvergence depth.
		fanins := make([]string, 0, k)
		seen := map[string]bool{}
		for len(fanins) < k {
			var s string
			if r.Intn(2) == 0 && len(signals) > nPI {
				s = signals[nPI+r.Intn(len(signals)-nPI)]
			} else {
				s = signals[r.Intn(len(signals))]
			}
			if !seen[s] {
				seen[s] = true
				fanins = append(fanins, s)
			}
		}
		cov := cube.NewCover(k)
		nCubes := 1 + r.Intn(3)
		for c := 0; c < nCubes; c++ {
			cb := cube.New(k)
			nLit := 0
			for v := 0; v < k; v++ {
				switch r.Intn(3) {
				case 0:
					cb.Set(v, cube.Pos)
					nLit++
				case 1:
					cb.Set(v, cube.Neg)
					nLit++
				}
			}
			if nLit > 0 {
				cov.Add(cb)
			}
		}
		if cov.IsZero() {
			cb := cube.New(k)
			cb.Set(0, cube.Pos)
			cov.Add(cb)
		}
		node := fmt.Sprintf("%s%d", prefix, i)
		nw.AddNode(node, fanins, cov.SCC())
		signals = append(signals, node)
	}
	return signals
}

// addSinkPOs marks every fanout-free node of nw as a primary output, in
// name order.
func addSinkPOs(nw *network.Network) {
	fanouts := nw.FanoutIDs()
	var pos []string
	for _, id := range nw.OrderIDs() {
		if len(fanouts[id]) == 0 {
			pos = append(pos, nw.SigName(id))
		}
	}
	sort.Strings(pos)
	for _, p := range pos {
		nw.AddPO(p)
	}
}

// coneForest builds ~gates nodes of independent random control cones: each
// group grows over its own private primary inputs, so any two nodes from
// different groups have provably disjoint TFI and TFO cones. This is the
// cone-disjoint regime the batch scheduler exploits — whole batches of
// trials commit without conflict — and the shape the committed scaling
// floors are measured on. Group growth is interleaved (node j of every
// group before node j+1 of any), so consecutive positions in creation —
// and therefore topological — order land in different groups; a
// contiguous scheduler window over the order then claims one disjoint
// dividend per group instead of colliding inside a single cone. One shared
// RNG stream keeps the whole forest a function of (gates, seed).
func coneForest(name string, gates int, seed int64) *network.Network {
	const (
		groupPIs   = 6
		groupNodes = 20
	)
	r := rand.New(rand.NewSource(seed))
	nw := network.New(name)
	groups := gates / groupNodes
	if groups < 1 {
		groups = 1
	}
	signals := make([][]string, groups)
	for g := 0; g < groups; g++ {
		signals[g] = make([]string, 0, groupPIs+groupNodes)
		for i := 0; i < groupPIs; i++ {
			pi := fmt.Sprintf("g%d_x%d", g, i)
			nw.AddPI(pi)
			signals[g] = append(signals[g], pi)
		}
	}
	for j := 0; j < groupNodes; j++ {
		for g := 0; g < groups; g++ {
			signals[g] = growRandom(nw, r, fmt.Sprintf("g%d_n%d_", g, j), signals[g], groupPIs, 1)
		}
	}
	addSinkPOs(nw)
	return nw
}

// structured builds a circuit with hidden shared Boolean structure: k small
// divisor functions over the PIs exist as nodes, and m consumer nodes are
// flattened forms of q·d + r expressions over them — the exact workload the
// resubstitution algorithms are meant to rediscover and reshare.
func structured(name string, nPI, nDiv, nConsumer int, seed int64) *network.Network {
	r := rand.New(rand.NewSource(seed))
	nw := network.New(name)
	pis := make([]string, nPI)
	for i := 0; i < nPI; i++ {
		pis[i] = fmt.Sprintf("x%d", i)
		nw.AddPI(pis[i])
	}
	randCover := func(maxCubes, maxLits int) cube.Cover {
		cov := cube.NewCover(nPI)
		for c := 0; c < 1+r.Intn(maxCubes); c++ {
			cb := cube.New(nPI)
			n := 0
			for v := 0; v < nPI && n < maxLits; v++ {
				switch r.Intn(4) {
				case 0:
					cb.Set(v, cube.Pos)
					n++
				case 1:
					cb.Set(v, cube.Neg)
					n++
				}
			}
			if n > 0 {
				cov.Add(cb)
			}
		}
		if cov.IsZero() {
			cb := cube.New(nPI)
			cb.Set(r.Intn(nPI), cube.Pos)
			cov.Add(cb)
		}
		return cov.SCC()
	}
	divisors := make([]cube.Cover, nDiv)
	for i := range divisors {
		divisors[i] = randCover(2, 2)
		nw.AddNode(fmt.Sprintf("d%d", i), pis, divisors[i].Clone())
		nw.AddPO(fmt.Sprintf("d%d", i))
	}
	for i := 0; i < nConsumer; i++ {
		d := divisors[r.Intn(nDiv)]
		q := randCover(2, 2)
		rem := randCover(2, 3)
		cov := q.And(d).Or(rem).SCC()
		if cov.IsZero() || (cov.NumCubes() == 1 && cov.Cubes[0].IsUniverse()) {
			cov = rem
		}
		name := fmt.Sprintf("f%d", i)
		nw.AddNode(name, pis, cov)
		nw.AddPO(name)
	}
	return nw
}

// pla builds a multi-output two-level PLA-style circuit with shared cubes.
func pla(name string, nPI, nPO, nCubes int, seed int64) *network.Network {
	r := rand.New(rand.NewSource(seed))
	nw := network.New(name)
	fanins := make([]string, nPI)
	for i := 0; i < nPI; i++ {
		fanins[i] = fmt.Sprintf("x%d", i)
		nw.AddPI(fanins[i])
	}
	// Shared cube pool.
	pool := make([]cube.Cube, nCubes)
	for i := range pool {
		c := cube.New(nPI)
		nLit := 0
		for v := 0; v < nPI; v++ {
			switch r.Intn(4) {
			case 0:
				c.Set(v, cube.Pos)
				nLit++
			case 1:
				c.Set(v, cube.Neg)
				nLit++
			}
		}
		if nLit == 0 {
			c.Set(r.Intn(nPI), cube.Pos)
		}
		pool[i] = c
	}
	for o := 0; o < nPO; o++ {
		cov := cube.NewCover(nPI)
		k := 3 + r.Intn(nCubes/2)
		perm := r.Perm(nCubes)
		for _, pi := range perm[:k] {
			cov.Add(pool[pi].Clone())
		}
		node := fmt.Sprintf("o%d", o)
		nw.AddNode(node, fanins, cov.SCC())
		nw.AddPO(node)
	}
	return nw
}
