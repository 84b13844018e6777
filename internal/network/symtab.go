package network

// SigID is the dense integer identity of one signal (primary input, node,
// or referenced-but-undriven name). IDs are assigned by interning order,
// starting at 0, and are never reused or compacted for the lifetime of a
// network: a removed node's ID stays interned (its name may be re-bound by
// a later AddNode, which re-uses the same ID). Everything inside the
// network core — node storage, fanin lists, signature and cone tables,
// iteration state — is indexed by SigID; strings exist only at the BLIF
// parse/print boundary, held by the SymTab.
type SigID int32

// SymTab is the thin two-way symbol table binding signal names to dense
// SigIDs. It is append-only: interning never invalidates an existing ID,
// which is what lets clones share fanin-ID slices with their origin.
type SymTab struct {
	names []string
	//bdslint:ignore idmap SymTab IS the name→ID boundary: the one sanctioned string-keyed structure everything else trades IDs through
	byName map[string]SigID
}

// newSymTab returns an empty symbol table with room for n names.
func newSymTab(n int) *SymTab {
	//bdslint:ignore idmap constructs the sanctioned boundary table (see the byName field)
	return &SymTab{names: make([]string, 0, n), byName: make(map[string]SigID, n)}
}

// Len returns the number of interned names (the dense ID space size).
func (st *SymTab) Len() int { return len(st.names) }

// Intern returns the ID of name, assigning the next dense ID on first use.
func (st *SymTab) Intern(name string) SigID {
	if id, ok := st.byName[name]; ok {
		return id
	}
	id := SigID(len(st.names))
	st.names = append(st.names, name)
	st.byName[name] = id
	return id
}

// Lookup returns the ID of name without interning it; ok=false when the
// name has never been seen.
func (st *SymTab) Lookup(name string) (SigID, bool) {
	id, ok := st.byName[name]
	return id, ok
}

// Name returns the name bound to id.
func (st *SymTab) Name(id SigID) string { return st.names[id] }

// Clone deep-copies the table. The reverse map is rebuilt from the name
// slice (deterministically — no map iteration).
func (st *SymTab) Clone() *SymTab {
	c := &SymTab{
		names: append([]string(nil), st.names...),
		//bdslint:ignore idmap rebuilds the sanctioned boundary table (see the byName field)
		byName: make(map[string]SigID, len(st.names)),
	}
	for i, name := range c.names {
		c.byName[name] = SigID(i)
	}
	return c
}
