package network

import (
	"testing"

	"repro/internal/cube"
)

// versionNet is buildSmall plus a dead node h that reads only its first
// fanin, so NormalizeNode, RemoveNode, Sweep and Eliminate each have
// something to change.
func versionNet() *Network {
	nw := buildSmall()
	nw.AddNode("h", []string{"a", "c"}, cube.ParseCover(2, "a"))
	return nw
}

// signalNames lists every PI and node name of nw.
func signalNames(nw *Network) []string {
	names := append([]string(nil), nw.PIs()...)
	for _, n := range nw.Nodes() {
		names = append(names, n.Name)
	}
	return names
}

// TestEveryMutatorAdvancesVersion locks the one staleness signal: every
// structural mutator of a Network advances Version, an
// attached signature or cone table answers nothing from then until its
// Refresh, and the refreshed table equals one built fresh on a clone. Read-
// only calls leave the version alone.
func TestEveryMutatorAdvancesVersion(t *testing.T) {
	ab := cube.ParseCover(2, "ab")
	mutators := []struct {
		name string
		edit func(t *testing.T, nw *Network)
	}{
		{"AddPI", func(t *testing.T, nw *Network) { nw.AddPI("d") }},
		{"AddPO", func(t *testing.T, nw *Network) { nw.AddPO("g") }},
		{"AddNode", func(t *testing.T, nw *Network) { nw.AddNode("k", []string{"a", "c"}, ab) }},
		{"RemoveNode", func(t *testing.T, nw *Network) { nw.RemoveNode("h") }},
		{"ReplaceNodeFunction", func(t *testing.T, nw *Network) {
			if err := nw.ReplaceNodeFunction("g", []string{"a", "c"}, ab); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetNodeCover", func(t *testing.T, nw *Network) { nw.SetNodeCover("g", cube.ParseCover(2, "a'b")) }},
		{"NormalizeNode", func(t *testing.T, nw *Network) {
			nw.NormalizeNode("h")
			if len(nw.Node("h").Fanins) != 1 {
				t.Fatal("NormalizeNode kept the unread fanin")
			}
		}},
		{"Install", func(t *testing.T, nw *Network) {
			nw.Install([]*Node{{Name: "k", Fanins: []string{"a", "b"}, Cover: ab}},
				[]*Node{{Name: "g", Fanins: []string{"k", "c"}, Cover: ab}})
		}},
		{"CopyFrom", func(t *testing.T, nw *Network) {
			c := nw.Clone()
			c.SetNodeCover("g", cube.ParseCover(2, "a + b"))
			nw.CopyFrom(c)
		}},
		{"Compose", func(t *testing.T, nw *Network) {
			if !nw.Compose("f", "g") {
				t.Fatal("Compose refused")
			}
		}},
		{"ReplaceFaninSignal", func(t *testing.T, nw *Network) {
			if !nw.ReplaceFaninSignal("f", "c", "b", true) {
				t.Fatal("ReplaceFaninSignal refused")
			}
		}},
		{"Sweep", func(t *testing.T, nw *Network) {
			if nw.Sweep() == 0 {
				t.Fatal("Sweep changed nothing")
			}
		}},
		{"Eliminate", func(t *testing.T, nw *Network) {
			if nw.Eliminate(0) == 0 {
				t.Fatal("Eliminate changed nothing")
			}
		}},
	}
	for _, m := range mutators {
		t.Run(m.name, func(t *testing.T) {
			nw := versionNet()
			sigs, cones := nw.EnableSigs(), nw.EnableCones()
			v := nw.Version()
			m.edit(t, nw)
			if nw.Version() <= v {
				t.Fatalf("version %d after the edit, %d before", nw.Version(), v)
			}
			for _, name := range signalNames(nw) {
				if _, ok := sigs.Sig(name); ok {
					t.Errorf("Sig(%q) answered before Refresh", name)
				}
				if _, ok := cones.Hash(name); ok {
					t.Errorf("Hash(%q) answered before Refresh", name)
				}
			}
			if _, ok := cones.NetHash(); ok {
				t.Error("NetHash answered before Refresh")
			}
			sigs.Refresh()
			cones.Refresh()
			if err := nw.Check(); err != nil {
				t.Fatal(err)
			}
			c := nw.Clone()
			fs, fc := c.EnableSigs(), c.EnableCones()
			for _, name := range signalNames(nw) {
				gs, gok := sigs.Sig(name)
				ws, wok := fs.Sig(name)
				if gs != ws || gok != wok {
					t.Errorf("Sig(%q) = %x, %v after Refresh; fresh table %x, %v", name, gs, gok, ws, wok)
				}
				gh, gok := cones.Hash(name)
				wh, wok := fc.Hash(name)
				if gh != wh || gok != wok {
					t.Errorf("Hash(%q) = %x, %v after Refresh; fresh table %x, %v", name, gh, gok, wh, wok)
				}
			}
			gn, gok := cones.NetHash()
			wn, wok := fc.NetHash()
			if gn != wn || !gok || !wok {
				t.Errorf("NetHash = %x, %v after Refresh; fresh table %x, %v", gn, gok, wn, wok)
			}
		})
	}

	readers := []struct {
		name string
		read func(nw *Network)
	}{
		{"Clone", func(nw *Network) { nw.Clone() }},
		{"TopoOrderIDs", func(nw *Network) { nw.TopoOrderIDs() }},
		{"DependsOn", func(nw *Network) { nw.DependsOn("f", "a") }},
		{"FreshName", func(nw *Network) { nw.FreshName("g") }},
		{"FanoutsOf", func(nw *Network) { nw.FanoutsOf(mustID(t, nw, "g")) }},
		{"EnableFanouts", func(nw *Network) { nw.EnableFanouts() }},
		{"Simulate", func(nw *Network) { nw.Simulate(map[string]uint64{"a": 1, "b": 3, "c": 5}) }},
		{"EnableSigs", func(nw *Network) { nw.EnableSigs() }},
		{"EnableCones", func(nw *Network) { nw.EnableCones() }},
		{"Check", func(nw *Network) { nw.Check() }},
	}
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			nw := versionNet()
			v := nw.Version()
			r.read(nw)
			if nw.Version() != v {
				t.Fatalf("read-only call moved the version %d -> %d", v, nw.Version())
			}
		})
	}
}
