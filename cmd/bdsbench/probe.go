package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/algebraic"
	"repro/internal/atpg"
	"repro/internal/mini"
	"repro/internal/netlist"
	"repro/internal/network"
)

// probeSample is how many nodes the per-node probes (netlist patch, ATPG,
// cover operations) take from a workload's input networks.
const probeSample = 256

// probeMin is the least time one probe is repeated for; its value is the
// median repetition.
const probeMin = 50 * time.Millisecond

// sampled is one node picked for the per-node probes.
type sampled struct {
	net  int
	name string
	node *network.Node
}

// sampleNodes picks up to n nodes at a fixed stride from the nodes of nets,
// taken in network order and then node-name order.
func sampleNodes(nets []*network.Network, n int) (out []sampled, stride, total int) {
	var all []sampled
	for i, nw := range nets {
		for _, name := range nw.SortedNodeNames() {
			all = append(all, sampled{i, name, nw.Node(name)})
		}
	}
	stride = (len(all) + n - 1) / n
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(all); i += stride {
		out = append(out, all[i])
	}
	return out, stride, len(all)
}

// timeProbe repeats f at least three times and for at least probeMin, and
// returns the median repetition's nanoseconds per unit of work.
func timeProbe(f func(), units int) float64 {
	var runs []float64
	var spent time.Duration
	for len(runs) < 3 || spent < probeMin {
		t0 := time.Now()
		f()
		d := time.Since(t0)
		spent += d
		runs = append(runs, float64(d.Nanoseconds()))
	}
	sort.Float64s(runs)
	return runs[len(runs)/2] / float64(max(units, 1))
}

// probeLayers times public calls of the lower layers on the workload's own
// input networks and returns the per-layer probe metrics. Whole-network
// calls are reported per node; the rest per sampled node, patch or fault.
func probeLayers(nets []*network.Network, rec *recorder, parent int) (map[string]metric, string, error) {
	m := map[string]metric{}
	nodes := 0
	for _, nw := range nets {
		nodes += nw.NumNodes()
	}
	probe := func(name string, units int, f func()) {
		id := rec.begin("probe "+name, parent, 0)
		m[name] = metric{timeProbe(f, units), "ns"}
		rec.end(id)
	}

	clones := make([]*network.Network, len(nets))
	for i, nw := range nets {
		clones[i] = nw.Clone()
	}
	probe("network.clone_ns", nodes, func() {
		for _, nw := range nets {
			nw.Clone()
		}
	})
	probe("network.sigs_build_ns", nodes, func() {
		for _, c := range clones {
			c.EnableSigs()
			c.DisableSigs()
		}
	})
	probe("network.cones_build_ns", nodes, func() {
		for _, c := range clones {
			c.EnableCones()
			c.DisableCones()
		}
	})
	words := make([]map[string]uint64, len(nets))
	for i, nw := range nets {
		words[i] = map[string]uint64{}
		for j, pi := range nw.PIs() {
			words[i][pi] = uint64(j+1) * 0x9E3779B97F4A7C15
		}
	}
	probe("network.simulate_ns", nodes, func() {
		for i, nw := range nets {
			nw.Simulate(words[i])
		}
	})
	var checkErr error
	probe("network.check_ns", nodes, func() {
		for _, nw := range nets {
			if err := nw.Check(); err != nil {
				checkErr = err
			}
		}
	})
	if checkErr != nil {
		return nil, "", fmt.Errorf("network.Check on a workload input: %w", checkErr)
	}
	probe("netlist.build_ns", nodes, func() {
		for _, nw := range nets {
			netlist.FromNetwork(nw)
		}
	})

	sample, stride, total := sampleNodes(nets, probeSample)
	builds := make([]*netlist.Build, len(nets))
	for i, nw := range nets {
		builds[i] = netlist.FromNetwork(nw)
	}
	probe("netlist.patch_ns", len(sample), func() {
		for _, s := range sample {
			b := builds[s.net]
			old := b.Nodes[s.name]
			b.NL.BeginTx()
			b.PatchNode(s.name, s.node)
			b.NL.EndTx()
			b.Nodes[s.name] = old
		}
	})

	// Stuck-at-1 faults on the cube (AND) gate pins of the sampled nodes:
	// the literal-removal faults division asks the implication engine about.
	type fault struct {
		net int
		f   atpg.Fault
	}
	var faults []fault
	for _, s := range sample {
		ng := builds[s.net].Nodes[s.name]
		for _, g := range ng.Cubes {
			for pin := range builds[s.net].NL.Fanins(g) {
				faults = append(faults, fault{s.net, atpg.Fault{Wire: atpg.Wire{Gate: g, Pin: pin}, Stuck: atpg.One}})
			}
		}
	}
	if len(faults) > probeSample {
		faults = faults[:probeSample]
	}
	untestable := 0
	for _, learn := range []bool{false, true} {
		engines := make([]*atpg.Engine, len(builds))
		for i, b := range builds {
			engines[i] = atpg.NewEngine(b.NL, atpg.Options{Learn: learn})
		}
		name := "atpg.untestable_ns"
		if learn {
			name = "atpg.learn_ns"
		}
		probe(name, len(faults), func() {
			proven := 0
			for _, f := range faults {
				if atpg.Untestable(engines[f.net], builds[f.net].NL, f.f, -1) {
					proven++
				}
			}
			if !learn {
				untestable = proven
			}
		})
	}
	m["atpg.untestable_share"] = metric{ratio(float64(untestable), float64(len(faults))), "ratio"}

	probe("cube.complement_ns", len(sample), func() {
		for _, s := range sample {
			s.node.Cover.Complement()
		}
	})
	probe("mini.minimize_ns", len(sample), func() {
		for _, s := range sample {
			mini.Minimize(s.node.Cover, mini.Options{})
		}
	})
	probe("algebraic.factor_ns", len(sample), func() {
		for _, s := range sample {
			algebraic.Factor(s.node.Cover)
		}
	})
	note := fmt.Sprintf("probes: whole-network calls over %d nodes of %d networks; %d nodes sampled at stride %d of %d, %d faults",
		nodes, len(nets), len(sample), stride, total, len(faults))
	return m, note, nil
}
