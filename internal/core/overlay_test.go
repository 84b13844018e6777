package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/blif"
	"repro/internal/verify"
)

// TestPropOverlayMatchesClonePlanForPlan is the overlay trial path's
// property test: with Options.Audit set, every planned trial is re-run on
// the historical deep-clone path and the engine panics unless the two plans
// agree byte-for-byte — so a clean run certifies plan-for-plan equality,
// not just equal committed results. The committed networks are additionally
// compared against a noOverlay run. Runs under -race in ci.sh, so the
// worker=4 case also proves the audit re-runs are race-clean.
func TestPropOverlayMatchesClonePlanForPlan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		base := randomDAG(r, 4, 7)
		for _, cfg := range []Config{Basic, Extended, ExtendedGDC} {
			for _, workers := range []int{1, 4} {
				opt := Options{Config: cfg, POS: true, Pool: true, Workers: workers}

				on := base.Clone()
				optAudit := opt
				optAudit.Audit = true
				Substitute(on, optAudit) // panics on any plan divergence

				off := base.Clone()
				optOff := opt
				optOff.noOverlay = true
				Substitute(off, optOff)

				if a, b := blif.ToString(on), blif.ToString(off); a != b {
					t.Fatalf("trial %d cfg %v workers %d: overlay result diverged from clone result\noverlay:\n%s\nclone:\n%s",
						trial, cfg, workers, a, b)
				}
				if !verify.Equivalent(base, on) {
					t.Fatalf("trial %d cfg %v workers %d: equivalence broken", trial, cfg, workers)
				}
			}
		}
	}
}

// TestOverlayAuditDetectsCorruptedPlan proves the Audit cross-check is a
// live tripwire, not a tautology: a hook corrupts overlay-path plans before
// the comparison, and the audit must panic on the first corrupted trial —
// and the panic must reach the caller whether the trial ran on the serial
// path or in a batch phase-B worker goroutine.
func TestOverlayAuditDetectsCorruptedPlan(t *testing.T) {
	defer func() { overlayAuditCorrupt = nil }()
	expectAuditPanic := func(label string, run func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: Audit accepted a corrupted overlay plan", label)
			}
			if !strings.Contains(fmt.Sprint(r), "overlay audit") {
				t.Fatalf("%s: unexpected panic: %v", label, r)
			}
		}()
		run()
	}

	// Serial path: every plan is corrupted, so the first trial trips.
	overlayAuditCorrupt = func(p *plan) { p.gain += 1000 }
	expectAuditPanic("serial", func() {
		Substitute(gainNetwork(), Options{Config: Basic, Workers: 1, Audit: true})
	})

	// Batch path: corruption starts once a multi-member batch is dispatched,
	// so the first corrupted trial runs in a phase-B worker goroutine and
	// the scheduler must re-raise its panic on this goroutine.
	var dispatched atomic.Bool
	batchObserver = func([]*batchMember) { dispatched.Store(true) }
	defer func() { batchObserver = nil }()
	overlayAuditCorrupt = func(p *plan) {
		if dispatched.Load() {
			p.gain += 1000
		}
	}
	expectAuditPanic("batch", func() {
		Substitute(coneForestDAG(12), Options{Config: Basic, Workers: 2, Audit: true})
	})
}

// TestSubstituteOverlayInvariant is the result-invisibility contract of the
// copy-on-write trial path: the committed BLIF is byte-identical with
// overlays on and off, at any worker count — and, since the batch scheduler
// rides the same plan/commit machinery, with batching on and off too (all
// eight combinations must agree).
func TestSubstituteOverlayInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	workersList := []int{1, 4, runtime.NumCPU()}
	for trial := 0; trial < 3; trial++ {
		base := randomDAG(r, 4, 8)
		want := ""
		for _, noOverlay := range []bool{false, true} {
			for _, noBatch := range []bool{false, true} {
				for _, w := range workersList {
					nw := base.Clone()
					Substitute(nw, Options{
						Config: Extended, POS: true, Pool: true,
						Workers: w, noOverlay: noOverlay, NoBatch: noBatch,
					})
					got := blif.ToString(nw)
					if want == "" {
						want = got
					} else if got != want {
						t.Fatalf("trial %d: overlay=%v batch=%v workers=%d diverged\nwant:\n%s\ngot:\n%s",
							trial, !noOverlay, !noBatch, w, want, got)
					}
				}
			}
		}
	}
}
