package network

// Reader is the read-only surface of a Network. The plan/commit substitution
// engine hands planners a Reader so the ownership split is explicit in the
// type system: candidate evaluation may inspect the shared network (and
// Clone it to obtain a private mutable copy) but must never edit it in
// place; all in-place mutation goes through the serial committer, which
// holds the concrete *Network. Concurrent planners may therefore share one
// Reader — every method below is a pure read on *Network (none touches
// hidden caches), which `go test -race` verifies over the parallel trial
// pool. (*Overlay implements the ID surface with overlay-local lazy
// interning, which is fine because an overlay is owned by one goroutine.)
//
// Callers must treat values reached through a Reader as frozen: the *Node
// returned by Node/NodeByID and the slices returned by
// PIs/POs/Nodes/FaninIDsOf alias the live network and must not be written
// through.
type Reader interface {
	// NetName returns the network's name.
	NetName() string
	// Node returns the node driving the named signal, or nil (read-only).
	Node(name string) *Node
	// PIs returns the primary input names (do not modify).
	PIs() []string
	// POs returns the primary output signal names (do not modify).
	POs() []string
	// IsPI reports whether name is a primary input.
	IsPI(name string) bool
	// Nodes returns all nodes in deterministic order (do not modify).
	Nodes() []*Node
	// DependsOn reports whether a transitively depends on b.
	DependsOn(a, b string) bool
	// FreshName returns an unused signal name with the given prefix — a pure
	// probe against the current name space (it reserves nothing).
	FreshName(prefix string) string
	// Clone deep-copies the network into a private mutable copy (without the
	// signature and cone-hash tables — see Network.Clone).
	Clone() *Network

	// --- Dense-ID surface -------------------------------------------------
	// Signals are identified by dense SigIDs (see symtab.go). On a Network
	// the IDs are the symbol table's; an Overlay extends its base's ID space
	// with overlay-local IDs for names it adds.

	// NumSigs returns the size of the dense ID space.
	NumSigs() int
	// IDOf returns the dense ID of name without interning it.
	IDOf(name string) (SigID, bool)
	// SigName returns the name bound to id.
	SigName(id SigID) string
	// NodeByID returns the node driving signal id, or nil (read-only).
	NodeByID(id SigID) *Node
	// FaninIDsOf returns node id's fanin IDs, parallel to its Fanins slice
	// (do not modify). Nil for PIs/unknown.
	FaninIDsOf(id SigID) []SigID
	// TopoOrderIDs returns node IDs in topological order — the same visiting
	// sequence as Network.TopoOrder, signal for signal.
	TopoOrderIDs() []SigID
}

// NetName returns the network's name, satisfying the Reader interface
// (the Name field itself cannot appear in an interface).
func (nw *Network) NetName() string { return nw.Name }

// compile-time check: *Network is a Reader.
var _ Reader = (*Network)(nil)
