// Command atpgtool exposes the ATPG substrate on BLIF circuits: stuck-at
// fault enumeration with PODEM test generation, fault-coverage statistics,
// and redundancy identification (cross-checked between the implication
// engine and the complete PODEM search).
//
// Usage:
//
//	atpgtool [-bench name | file.blif] [-mode report|redundancies|vectors]
//	         [-learn N] [-limit N]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/netlist"
	"repro/internal/network"
)

func main() {
	benchName := flag.String("bench", "", "use an embedded benchmark")
	mode := flag.String("mode", "report", "report, grade, testset, redundancies or vectors")
	learn := flag.Int("learn", 1, "recursive learning depth for the implication engine")
	limit := flag.Int("limit", 0, "PODEM backtrack limit (0 = default)")
	flag.Parse()
	if !validMode(*mode) {
		fmt.Fprintln(os.Stderr, "atpgtool: unknown mode", *mode)
		os.Exit(2)
	}

	nw, err := load(*benchName, flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "atpgtool:", err)
		os.Exit(1)
	}
	b := netlist.FromNetwork(nw)
	nl := b.NL
	eng := atpg.NewEngine(nl, atpg.Options{Learn: *learn > 0, LearnDepth: *learn})
	p := atpg.NewPodem(nl, *limit)

	if *mode == "testset" {
		ts := atpg.GenerateTestSet(nl, *limit)
		fmt.Printf("circuit: %s — %d collapsed faults\n", nw.Name, ts.Total)
		fmt.Printf("vectors: %d (after compaction), detected %d, redundant %d, aborted %d\n",
			len(ts.Vectors), ts.Detected, ts.Redundant, ts.Aborted)
		for i, vec := range ts.Vectors {
			fmt.Printf("  t%-3d %s\n", i, vecString(vec))
		}
		return
	}
	if *mode == "grade" {
		// Fast path: collapse + parallel fault simulation + PODEM on the
		// survivors.
		rep := atpg.GradeCoverage(nl, 16, *limit)
		fmt.Printf("circuit: %s — %d gates\n", nw.Name, nl.NumGates())
		fmt.Printf("faults:        %5d (%d after collapsing)\n", rep.Total, rep.Collapsed)
		fmt.Printf("by simulation: %5d\n", rep.BySimulation)
		fmt.Printf("by PODEM:      %5d\n", rep.ByPodem)
		fmt.Printf("redundant:     %5d\n", rep.Redundant)
		fmt.Printf("aborted:       %5d\n", rep.Aborted)
		cov := 100 * float64(rep.BySimulation+rep.ByPodem) / float64(rep.Collapsed)
		fmt.Printf("coverage:      %5.1f%% of collapsed faults\n", cov)
		return
	}

	type faultRec struct {
		fault atpg.Fault
		desc  string
	}
	var faults []faultRec
	nodeOf := gateOwners(nw, b)
	for g := 0; g < nl.NumGates(); g++ {
		kind := nl.KindOf(g)
		if kind != netlist.And && kind != netlist.Or && kind != netlist.Not {
			continue
		}
		for pin := range nl.Fanins(g) {
			for _, stuck := range []atpg.Value{atpg.Zero, atpg.One} {
				f := atpg.Fault{Wire: atpg.Wire{Gate: g, Pin: pin}, Stuck: stuck}
				faults = append(faults, faultRec{f, describe(nl, nodeOf, f)})
			}
		}
	}

	testable, redundant, aborted := 0, 0, 0
	implicationProofs := 0
	var redundantDescs []string
	for _, fr := range faults {
		_, res := p.GenerateTest(fr.fault)
		switch res {
		case atpg.Testable:
			testable++
			if *mode == "vectors" {
				vec, _ := p.GenerateTest(fr.fault)
				fmt.Printf("%-40s test %s\n", fr.desc, vecString(vec))
			}
		case atpg.Redundant:
			redundant++
			redundantDescs = append(redundantDescs, fr.desc)
		case atpg.Aborted:
			aborted++
		}
		kind := nl.KindOf(fr.fault.Wire.Gate)
		removable := kind == netlist.And && fr.fault.Stuck == atpg.One ||
			kind == netlist.Or && fr.fault.Stuck == atpg.Zero
		if removable && atpg.Untestable(eng, nl, fr.fault, -1) {
			implicationProofs++
			if res == atpg.Testable {
				fmt.Fprintf(os.Stderr, "BUG: implication engine contradicts PODEM on %s\n", fr.desc)
				os.Exit(1)
			}
		}
	}

	switch *mode {
	case "redundancies":
		sort.Strings(redundantDescs)
		for _, d := range redundantDescs {
			fmt.Println(d)
		}
	default: // report or vectors; validMode rejected anything else
		fmt.Printf("circuit: %s — %d gates, %d wire faults\n", nw.Name, nl.NumGates(), len(faults))
		fmt.Printf("testable:   %5d (%.1f%% coverage)\n", testable, 100*float64(testable)/float64(len(faults)))
		fmt.Printf("redundant:  %5d\n", redundant)
		fmt.Printf("aborted:    %5d\n", aborted)
		fmt.Printf("implication-engine untestability proofs: %d (all confirmed by PODEM)\n", implicationProofs)
	}
}

// validMode reports whether mode is one of the -mode values.
func validMode(mode string) bool {
	switch mode {
	case "report", "grade", "testset", "redundancies", "vectors":
		return true
	}
	return false
}

func load(benchName, path string) (*network.Network, error) {
	if benchName != "" {
		if !slices.Contains(bench.Names(), benchName) {
			return nil, fmt.Errorf("unknown benchmark %q (see cmd/blifgen -list)", benchName)
		}
		return bench.Get(benchName), nil
	}
	if path == "" {
		return nil, fmt.Errorf("no input: give a BLIF file or -bench name")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return blif.Parse(f)
}

// gateOwners maps each gate to the network node whose structure contains it.
func gateOwners(nw *network.Network, b *netlist.Build) map[int]string {
	out := make(map[int]string)
	for name, ng := range b.Nodes {
		out[ng.Out] = name
		for _, g := range ng.Cubes {
			out[g] = name
		}
	}
	return out
}

func describe(nl *netlist.Netlist, nodeOf map[int]string, f atpg.Fault) string {
	owner := nodeOf[f.Wire.Gate]
	if owner == "" {
		owner = "?"
	}
	return fmt.Sprintf("node %s %s gate#%d pin%d s-a-%d",
		owner, nl.KindOf(f.Wire.Gate), f.Wire.Gate, f.Wire.Pin, f.Stuck)
}

func vecString(vec map[string]bool) string {
	keys := make([]string, 0, len(vec))
	for k := range vec {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		v := 0
		if vec[k] {
			v = 1
		}
		fmt.Fprintf(&b, "%s=%d ", k, v)
	}
	return strings.TrimSpace(b.String())
}
