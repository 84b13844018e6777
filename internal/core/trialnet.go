package core

import (
	"repro/internal/cube"
	"repro/internal/network"
)

// trialNet is the mutable surface a division trial edits: the read interface
// plus the four mutators the engine applies to its working copy. Both
// *network.Network (the historical deep-clone path) and *network.Overlay
// (the copy-on-write path) satisfy it, so every divider is written once and
// Options.noOverlay just changes which one trialClone hands out. It is a
// named interface distinct from network.Reader on purpose: the roview
// analyzer freezes anything read through a Reader, while a trialNet is
// exactly the thing a planner owns and may mutate.
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

// materializeTrial converts a trial's working copy into a standalone
// *network.Network for the public one-shot entry points (ExtendedDivide,
// PooledExtendedDivide), whose callers expect an independent network.
func materializeTrial(work trialNet) *network.Network {
	if ov, ok := work.(*network.Overlay); ok {
		return ov.Clone()
	}
	return work.(*network.Network)
}
