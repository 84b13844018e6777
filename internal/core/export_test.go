package core

// Seam for the external tests in package core_test, which import
// internal/script and so cannot live in package core.

// WithReference returns opt set to run every trial on the reference path
// that Options.Audit replays trials on.
func WithReference(opt Options) Options {
	opt.reference = true
	return opt
}
