package core

// Seam for the external tests in package core_test, which import
// internal/script and so cannot live in package core.

// WithNoOverlay returns opt set to run every trial on the reference clone
// path that Options.Audit replays trials on.
func WithNoOverlay(opt Options) Options {
	opt.noOverlay = true
	return opt
}
