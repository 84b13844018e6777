package core

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/network"
)

// nodeTrial is one node-form division trial of a suite circuit: dividend
// f, a divisor candidate as enumeration hands it out (carrying its
// complement cover), and the options it is planned with.
type nodeTrial struct {
	nw   *network.Network
	f    string
	cand candidate
	opt  Options
}

// outcome is how a node-form trial ends.
type outcome uint8

const (
	// noGain: the trial plans a division without gain.
	noGain outcome = iota
	// gains: the trial plans a division that gains.
	gains
	// refused: a POS trial the literal floor refuses, which plans a
	// division once the floor is off.
	refused
)

// findNodeTrial returns the first trial over the suite circuits, in suite
// and topological order, of a candidate in the given form that ends in
// the given outcome under opt.
func findNodeTrial(tb testing.TB, opt Options, fm form, want outcome) nodeTrial {
	tb.Helper()
	sc, unfloored := newScratch(), newScratch()
	unfloored.noFloor = true
	for _, name := range bench.Names() {
		nw := bench.Get(name)
		nc := newNodeCache(nw)
		for _, f := range nw.TopoOrder() {
			if nw.Node(f).Cover.IsZero() {
				continue
			}
			for _, c := range candidateDivisors(nw, nc, f, opt, nil) {
				if c.form != fm {
					continue
				}
				p, ok := planPair(sc, nw, f, c, opt)
				var got outcome
				switch {
				case ok && p.gain > 0:
					got = gains
				case ok:
					got = noGain
				default:
					if _, ok := planPair(unfloored, nw, f, c, opt); !ok {
						continue
					}
					got = refused
				}
				if got == want {
					return nodeTrial{nw, f, c, opt}
				}
			}
		}
	}
	tb.Fatalf("no suite trial in form %d with outcome %d under %+v", fm, want, opt)
	return nodeTrial{}
}

// plan runs the trial on sc.
func (t nodeTrial) plan(sc *scratch) (plan, bool) { return planPair(sc, t.nw, t.f, t.cand, t.opt) }

// TestNodeTrialAllocatesOnlyItsPlan checks the allocation contract of a
// node-form division trial: on a warmed scratch, a SOP and a
// complement-phase trial that yield no positive plan allocate nothing,
// windowed and unwindowed, yet still carry the body the clone path
// plans, for Options.Audit to compare; a POS trial the literal floor
// refuses allocates nothing either and plans nothing on either path; and
// a plan that gains keeps a body that later trials on the same scratch
// leave unchanged.
func TestNodeTrialAllocatesOnlyItsPlan(t *testing.T) {
	for _, depth := range []int{0, 3} {
		opt := Options{Config: Basic, WindowDepth: depth}
		for _, leg := range []struct {
			fm   form
			want outcome
		}{{formSOP, noGain}, {formCompl, noGain}, {formPOS, refused}} {
			fm := leg.fm
			legOpt := opt
			legOpt.POS = fm == formPOS
			trial := findNodeTrial(t, legOpt, fm, leg.want)
			ref := legOpt
			ref.noOverlay = true
			sc := newScratch()
			p, ok := trial.plan(sc)
			want, wantOK := planPair(newScratch(), trial.nw, trial.f, trial.cand, ref)
			if ok && len(p.bodies) != 1 {
				t.Fatalf("depth %d form %d, %s by %s: a plan without gain has %d bodies, want 1",
					depth, fm, trial.f, trial.cand.name, len(p.bodies))
			}
			if err := comparePlans(trial.nw, p, ok, want, wantOK); err != nil {
				t.Fatalf("depth %d form %d, %s by %s: %v", depth, fm, trial.f, trial.cand.name, err)
			}
			for i := 0; i < 3; i++ {
				trial.plan(sc)
			}
			// The trial's factoring and cycle check run on pooled arenas,
			// which the race detector drops at random.
			if raceBuild {
				continue
			}
			if allocs := testing.AllocsPerRun(100, func() { trial.plan(sc) }); allocs != 0 {
				t.Errorf("depth %d form %d, %s by %s: a trial without gain allocated %.0f times",
					depth, fm, trial.f, trial.cand.name, allocs)
			}
		}

		kept := findNodeTrial(t, opt, formSOP, gains)
		other := findNodeTrial(t, opt, formCompl, noGain)
		sc := newScratch()
		p, ok := kept.plan(sc)
		if !ok || p.gain <= 0 || len(p.bodies) != 1 {
			t.Fatalf("depth %d: %s by %s planned no gaining body", depth, kept.f, kept.cand.name)
		}
		body := p.bodies[0]
		want := body.Clone()
		// Each later trial reuses the trial memory from its start, so a body
		// left there would now hold the last trial's division.
		for i := 0; i < 3; i++ {
			kept.plan(sc)
			other.plan(sc)
		}
		if err := compareNodeFn(body.Fanins, body.Cover, want.Fanins, want.Cover); err != nil {
			t.Fatalf("depth %d: the kept body of %s changed under later trials: %v", depth, kept.f, err)
		}
	}
}

// BenchmarkNodeTrial measures one node-form division trial on a warmed
// scratch: a SOP and a complement-phase trial that gain nothing, windowed
// (Basic, WindowDepth 3) and unwindowed; a POS trial the literal floor
// refuses, windowed and unwindowed, and one it lets through to its final
// complement and minimization, which then gains nothing; and a SOP trial
// whose plan gains and so copies its body out. allocs/op is the headline:
// the SOP, complement-phase and refused POS legs without gain must stay
// at 0.
func BenchmarkNodeTrial(b *testing.B) {
	legs := []struct {
		name  string
		fm    form
		depth int
		want  outcome
	}{
		{"sop/unwindowed", formSOP, 0, noGain},
		{"sop/windowed", formSOP, 3, noGain},
		{"compl/unwindowed", formCompl, 0, noGain},
		{"compl/windowed", formCompl, 3, noGain},
		{"pos_refused/unwindowed", formPOS, 0, refused},
		{"pos_refused/windowed", formPOS, 3, refused},
		{"pos_finished/unwindowed", formPOS, 0, noGain},
		{"kept/unwindowed", formSOP, 0, gains},
	}
	for _, leg := range legs {
		opt := Options{Config: Basic, WindowDepth: leg.depth, POS: leg.fm == formPOS}
		trial := findNodeTrial(b, opt, leg.fm, leg.want)
		b.Run(leg.name, func(b *testing.B) {
			sc := newScratch()
			trial.plan(sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trial.plan(sc)
			}
		})
	}
}
