package network

import (
	"strings"
	"testing"

	"repro/internal/cube"
)

// corrupt clones buildSmall, applies break, and asserts Check reports a
// violation mentioning want.
func corrupt(t *testing.T, want string, breakIt func(nw *Network)) {
	t.Helper()
	nw := buildSmall()
	if err := nw.Check(); err != nil {
		t.Fatalf("pristine network fails Check: %v", err)
	}
	breakIt(nw)
	err := nw.Check()
	if err == nil {
		t.Fatalf("Check accepted a corrupted network (want error containing %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Check error %q does not mention %q", err, want)
	}
}

// mustID resolves a name the test knows is interned.
func mustID(t *testing.T, nw *Network, name string) SigID {
	t.Helper()
	id, ok := nw.IDOf(name)
	if !ok {
		t.Fatalf("signal %q not interned", name)
	}
	return id
}

func TestCheckDuplicatePI(t *testing.T) {
	corrupt(t, "duplicate primary input", func(nw *Network) {
		nw.pis = append(nw.pis, nw.pis[0])
		nw.piNames = append(nw.piNames, nw.piNames[0])
	})
}

func TestCheckDuplicatePO(t *testing.T) {
	corrupt(t, "duplicate primary output", func(nw *Network) {
		nw.posIDs = append(nw.posIDs, nw.posIDs[0])
		nw.poNames = append(nw.poNames, nw.poNames[0])
	})
}

func TestCheckPOMarkDrift(t *testing.T) {
	corrupt(t, "out of sync with the PO list", func(nw *Network) {
		nw.poMark[mustID(t, nw, "g")] = true
	})
}

func TestCheckUndrivenPO(t *testing.T) {
	corrupt(t, "undriven primary output", func(nw *Network) {
		nw.posIDs = append(nw.posIDs, nw.intern("ghost"))
		nw.poNames = append(nw.poNames, "ghost")
	})
}

func TestCheckNodeNameMismatch(t *testing.T) {
	corrupt(t, "carries name", func(nw *Network) {
		nw.Node("g").Name = "h"
	})
}

func TestCheckOrderDrift(t *testing.T) {
	// A node present in the storage but missing from the creation order would
	// vanish from Nodes() — every enumeration-based pass would skip it.
	corrupt(t, "creation order", func(nw *Network) {
		nw.order = nw.order[1:]
	})
	corrupt(t, "creation order", func(nw *Network) {
		nw.order = append(nw.order, mustID(t, nw, "g"))
	})
}

func TestCheckFaninIDDrift(t *testing.T) {
	// The name face and the ID core must agree slot for slot; a faninIDs
	// entry pointing at a different signal than the Fanins string would send
	// the ID-path consumers (netlist build, signature refresh) to the wrong
	// driver.
	corrupt(t, "id mismatch", func(nw *Network) {
		fid := mustID(t, nw, "f")
		ids := append([]SigID(nil), nw.faninIDs[fid]...)
		ids[0] = mustID(t, nw, "a")
		nw.faninIDs[fid] = ids
	})
	corrupt(t, "fanin ids", func(nw *Network) {
		fid := mustID(t, nw, "f")
		nw.faninIDs[fid] = nw.faninIDs[fid][:1]
	})
}

func TestCheckRepeatedFanin(t *testing.T) {
	corrupt(t, "repeated fanin", func(nw *Network) {
		n := nw.Node("f")
		g := mustID(t, nw, "g")
		n.Fanins = []string{"g", "g"}
		nw.faninIDs[mustID(t, nw, "f")] = []SigID{g, g}
	})
}

func TestCheckUndrivenFanin(t *testing.T) {
	corrupt(t, "undriven fanin", func(nw *Network) {
		fid := mustID(t, nw, "f")
		n := nw.Node("f")
		n.Fanins[1] = "ghost"
		ids := append([]SigID(nil), nw.faninIDs[fid]...)
		ids[1] = nw.intern("ghost")
		nw.faninIDs[fid] = ids
	})
}

func TestCheckCoverSpaceMismatch(t *testing.T) {
	corrupt(t, "cover space", func(nw *Network) {
		n := nw.Node("f")
		n.Fanins = append(n.Fanins, "a")
	})
}

func TestCheckEmptyCube(t *testing.T) {
	corrupt(t, "non-canonical", func(nw *Network) {
		n := nw.Node("g")
		c := cube.New(2)
		c.Set(0, cube.Empty)
		n.Cover.Cubes = append(n.Cover.Cubes, c)
	})
}

func TestCheckCycle(t *testing.T) {
	// Rewire g to depend on f while f depends on g: Check must return the
	// cycle as an error (the old checker swallowed the TopoOrder panic via
	// recover and reported the network clean).
	corrupt(t, "combinational cycle", func(nw *Network) {
		gid := mustID(t, nw, "g")
		n := nw.Node("g")
		n.Fanins = []string{"a", "f"}
		nw.faninIDs[gid] = []SigID{mustID(t, nw, "a"), mustID(t, nw, "f")}
	})
}

func TestCheckSigTableStale(t *testing.T) {
	// A clean signature table whose stored value disagrees with a fresh
	// evaluation means some edit path missed markDirty — the divisor
	// prefilter would silently run on stale simulation data.
	corrupt(t, "stale signature", func(nw *Network) {
		tab := nw.EnableSigs()
		tab.Refresh()
		tab.sig[mustID(t, nw, "g")][0] ^= 1
	})
}

func TestCheckSigTableRemovedNode(t *testing.T) {
	corrupt(t, "removed node", func(nw *Network) {
		tab := nw.EnableSigs()
		tab.Refresh()
		id := nw.intern("zombie")
		tab.grow()
		tab.known[id] = true
	})
}

func TestCheckSigTableMissingPI(t *testing.T) {
	corrupt(t, "missing primary input", func(nw *Network) {
		tab := nw.EnableSigs()
		tab.piPat = tab.piPat[:0]
	})
}

func TestCheckSigTableDirtySkipsDeepAudit(t *testing.T) {
	// With dirty marks pending, stored signatures are stale by design
	// (callers Refresh before reading): the deep audit must not fire.
	nw := buildSmall()
	tab := nw.EnableSigs()
	tab.Refresh()
	gid := mustID(t, nw, "g")
	tab.sig[gid][0] ^= 1
	tab.markDirty(gid)
	if err := nw.Check(); err != nil {
		t.Fatalf("Check flagged a stale-but-dirty signature: %v", err)
	}
	tab.Refresh()
	if err := nw.Check(); err != nil {
		t.Fatalf("Check after Refresh: %v", err)
	}
}

func TestCheckAfterEdits(t *testing.T) {
	// The editing entry points must leave a Check-clean network behind.
	nw := buildSmall()
	nw.EnableSigs().Refresh()
	if !nw.Compose("f", "g") {
		t.Fatal("Compose refused")
	}
	nw.Sigs().Refresh()
	if err := nw.Check(); err != nil {
		t.Fatalf("Check after Compose: %v", err)
	}
	nw.Sweep()
	nw.Sigs().Refresh()
	if err := nw.Check(); err != nil {
		t.Fatalf("Check after Sweep: %v", err)
	}
}
