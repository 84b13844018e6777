package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cube"
	"repro/internal/network"
)

// TestRankRepairKeepsEdgesOrdered applies random acyclic rewrites — a node
// gains a fanin it does not feed — to random DAGs and repairs the ranks
// after each one as a commit would: every edge must stay ordered, no rank
// may fall, and every pruned dependence answer must match the unpruned
// walk.
func TestRankRepairKeepsEdgesOrdered(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	edits := 0
	for trial := 0; trial < 30; trial++ {
		nw := randomDAG(r, 4, 16)
		if trial%2 == 0 {
			nw.EnableFanouts()
		}
		var rk topoRank
		rk.seed(nw, nw.TopoOrderIDs())
		names := nw.SortedNodeNames()
		for step := 0; step < 20; step++ {
			f := names[r.Intn(len(names))]
			d := names[r.Intn(len(names))]
			fn := nw.Node(f)
			if d == f || fn.FaninIndex(d) >= 0 || nw.DependsOn(d, f) {
				continue
			}
			// f' = f with d as an extra, unread fanin: the edge d → f is
			// what the repair has to order.
			fanins := append(append([]string(nil), fn.Fanins...), d)
			cov := cube.NewCover(len(fanins))
			for _, c := range fn.Cover.Cubes {
				k := cube.New(len(fanins))
				for _, v := range c.Lits() {
					k.Set(v, c.Get(v))
				}
				cov.Add(k)
			}
			before := append([]int32(nil), rk.r...)
			p := plan{bodies: []*network.Node{{Name: f, Fanins: fanins, Cover: cov}}}
			nw.Install(nil, p.bodies)
			rk.update(&p, false)
			edits++
			if err := rk.check(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			for id, old := range before {
				if rk.r[id] < old {
					t.Fatalf("trial %d step %d: rank of %s fell %d → %d", trial, step, nw.SigName(network.SigID(id)), old, rk.r[id])
				}
			}
			rk.mustDescribe(nw)
			for _, u := range nw.OrderIDs() {
				for _, v := range nw.OrderIDs() {
					if u != v {
						rk.auditDependsOn(u, v)
					}
				}
			}
		}
	}
	if edits == 0 {
		t.Fatal("no rewrite applied")
	}
}

// TestRankAuditCatchesLoweredRank proves the Options.Audit edge check
// fires: with the rankCorrupt seam, the first commit's repair drops a node
// it installed to rank 0, below a fanin, and the audited run must panic.
func TestRankAuditCatchesLoweredRank(t *testing.T) {
	defer func() { rankCorrupt = false }()
	rankCorrupt = true
	msg := func() (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg, _ = p.(string)
			}
		}()
		Substitute(coneForestDAG(2), Options{Config: Basic, Audit: true, NoBatch: true})
		return ""
	}()
	if !strings.Contains(msg, "rank audit") {
		t.Fatalf("a lowered rank went unnoticed by the audit (panic %q)", msg)
	}
}

// TestRankSearchAuditCatchesWrongAnswer proves the dependence audit fires:
// on the chain a → b → c → d, lowering c's rank to 0 hides the path b → c
// → d from the pruned search, and the audited answer must panic.
func TestRankSearchAuditCatchesWrongAnswer(t *testing.T) {
	nw := network.New("chain")
	nw.AddPI("a")
	buf := cube.ParseCover(1, "a")
	nw.AddNode("b", []string{"a"}, buf.Clone())
	nw.AddNode("c", []string{"b"}, buf.Clone())
	nw.AddNode("d", []string{"c"}, buf.Clone())
	nw.AddPO("d")
	var rk topoRank
	rk.seed(nw, nw.TopoOrderIDs())
	b, _ := nw.IDOf("b")
	c, _ := nw.IDOf("c")
	d, _ := nw.IDOf("d")
	if !rk.auditDependsOn(d, b) {
		t.Fatal("d does not depend on b on intact ranks")
	}
	rk.r[c] = 0
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "rank audit") {
			t.Fatalf("the pruned search's wrong answer went unnoticed (panic %v)", p)
		}
	}()
	rk.auditDependsOn(d, b)
}
