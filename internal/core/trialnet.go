package core

import (
	"repro/internal/cube"
	"repro/internal/network"
)

// trialNet is the mutable surface of a trial that needs a working network:
// the read interface plus the four mutators the engine applies to its
// working copy — extended division's divisor decomposition, and the
// rebuild-per-pass RAR loop of GDC and clone-path trials. (Node-form
// trials on the default path take no working copy: they patch f into a
// netlist, see divideWithParts.) Both *network.Network (the historical
// deep-clone path) and *network.Overlay (the copy-on-write path) satisfy
// it, so every divider is written once and Options.noOverlay just changes
// which one trialClone hands out. It is a named interface distinct from
// network.Reader on purpose: the roview analyzer freezes anything read
// through a Reader, while a trialNet is exactly the thing a planner owns
// and may mutate.
type trialNet interface {
	network.Reader
	AddNode(name string, fanins []string, cover cube.Cover) *network.Node
	ReplaceNodeFunction(name string, fanins []string, cover cube.Cover) error
	SetNodeCover(name string, cover cube.Cover)
	NormalizeNode(name string)
}

// trialClone returns the working copy a division trial mutates: a free
// copy-on-write overlay over nw, or — under Options.noOverlay — a full deep
// clone (the historical path, kept as the escape hatch and as the Audit
// cross-check reference).
func (sc *scratch) trialClone(nw network.Reader) trialNet {
	if sc.noOverlay {
		return nw.Clone()
	}
	return network.NewOverlay(nw)
}
