// Command lshell is a small SIS-like interactive shell around the library:
// read a BLIF circuit (or an embedded benchmark), run optimization commands
// one at a time, inspect statistics, and write the result. Commands can
// also be supplied on the command line with -c, separated by semicolons.
//
//	$ lshell
//	lshell> bench csel8
//	lshell> print_stats
//	lshell> eliminate 0
//	lshell> simplify
//	lshell> resub ext
//	lshell> verify
//	lshell> write_blif out.blif
//
// Commands: read_blif FILE, bench NAME, write_blif [FILE], print_stats,
// print [NODE], sweep, eliminate N, simplify, full_simplify, resub
// {sis|bdd|basic|ext|extgdc}, gcx, gkx, decomp, redundancy, script
// {A|B|C|algebraic}, verify, checkpoint, revert, help, quit.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"flag"

	"repro/internal/bench"
	"repro/internal/blif"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/opt"
	"repro/internal/script"
	"repro/internal/verify"
)

type shell struct {
	nw      *network.Network
	ref     *network.Network // checkpoint for verify/revert
	out     *os.File
	errf    func(format string, args ...any)
	workers int // batch worker pool bound for resub (0 = GOMAXPROCS)
}

func main() {
	cmds := flag.String("c", "", "semicolon-separated commands to run non-interactively")
	workers := flag.Int("j", 0, "substitution planner workers (0 = GOMAXPROCS); results identical at any value")
	prof := cliutil.ProfileFlags()
	flag.Parse()
	*workers = cliutil.ClampWorkers(*workers, os.Stderr)
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "lshell:", err)
		os.Exit(1)
	}
	defer prof.StopAndReport("lshell", os.Stderr)

	sh := &shell{out: os.Stdout, workers: *workers}
	sh.errf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "lshell: "+format+"\n", args...) }

	if *cmds != "" {
		for _, line := range strings.Split(*cmds, ";") {
			if !sh.exec(strings.TrimSpace(line)) {
				return
			}
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("lshell> ")
	for sc.Scan() {
		if !sh.exec(strings.TrimSpace(sc.Text())) {
			return
		}
		fmt.Print("lshell> ")
	}
}

// exec runs one command; returns false to quit.
func (sh *shell) exec(line string) bool {
	if line == "" || strings.HasPrefix(line, "#") {
		return true
	}
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]

	needNet := func() bool {
		if sh.nw == nil {
			sh.errf("no circuit loaded (read_blif or bench first)")
			return false
		}
		return true
	}

	switch cmd {
	case "quit", "exit", "q":
		return false

	case "help":
		fmt.Fprintln(sh.out, "commands: read_blif FILE | bench NAME | write_blif [FILE] | print_stats |")
		fmt.Fprintln(sh.out, "  print [NODE] | sweep | eliminate N | simplify | full_simplify | exact_dc | levels |")
		fmt.Fprintln(sh.out, "  resub {sis|bdd|basic|ext|extgdc} | gcx | gkx | decomp | redundancy | dot [FILE] |")
		fmt.Fprintln(sh.out, "  script {A|B|C|algebraic} | verify | checkpoint | revert | quit")

	case "read_blif":
		if len(args) != 1 {
			sh.errf("usage: read_blif FILE")
			break
		}
		f, err := os.Open(args[0])
		if err != nil {
			sh.errf("%v", err)
			break
		}
		nw, err := blif.Parse(f)
		f.Close()
		if err != nil {
			sh.errf("%v", err)
			break
		}
		sh.load(nw)

	case "bench":
		if len(args) != 1 {
			sh.errf("usage: bench NAME (one of %s)", strings.Join(bench.Names(), " "))
			break
		}
		found := false
		for _, n := range bench.Names() {
			if n == args[0] {
				found = true
			}
		}
		if !found {
			sh.errf("unknown benchmark %q", args[0])
			break
		}
		sh.load(bench.Get(args[0]))

	case "write_blif":
		if !needNet() {
			break
		}
		w := sh.out
		if len(args) == 1 {
			f, err := os.Create(args[0])
			if err != nil {
				sh.errf("%v", err)
				break
			}
			defer f.Close()
			w = f
		}
		if err := blif.Write(w, sh.nw); err != nil {
			sh.errf("%v", err)
		}

	case "print_stats":
		if !needNet() {
			break
		}
		fmt.Fprintf(sh.out, "%s: %d PI, %d PO, %d nodes, %d lits(sop), %d lits(fac)\n",
			sh.nw.Name, len(sh.nw.PIs()), len(sh.nw.POs()), sh.nw.NumNodes(),
			sh.nw.SOPLits(), sh.nw.FactoredLits())

	case "print":
		if !needNet() {
			break
		}
		if len(args) == 1 {
			n := sh.nw.Node(args[0])
			if n == nil {
				sh.errf("no node %q", args[0])
				break
			}
			fmt.Fprintf(sh.out, "%s = %s\n", n.Name, n.Render())
			break
		}
		fmt.Fprint(sh.out, sh.nw.String())

	case "dot":
		if !needNet() {
			break
		}
		w := sh.out
		if len(args) == 1 {
			f, err := os.Create(args[0])
			if err != nil {
				sh.errf("%v", err)
				break
			}
			defer f.Close()
			w = f
		}
		if err := sh.nw.WriteDot(w); err != nil {
			sh.errf("%v", err)
		}

	case "sweep":
		if needNet() {
			fmt.Fprintf(sh.out, "removed %d nodes\n", sh.nw.Sweep())
		}

	case "eliminate":
		if !needNet() {
			break
		}
		thr := 0
		if len(args) == 1 {
			v, err := strconv.Atoi(args[0])
			if err != nil {
				sh.errf("bad threshold %q", args[0])
				break
			}
			thr = v
		}
		fmt.Fprintf(sh.out, "eliminated %d nodes\n", sh.nw.Eliminate(thr))

	case "simplify":
		if needNet() {
			fmt.Fprintf(sh.out, "saved %d literals\n", opt.SimplifyAll(sh.nw))
		}

	case "full_simplify":
		if needNet() {
			fmt.Fprintf(sh.out, "saved %d literals\n", opt.FullSimplify(sh.nw, 1))
		}

	case "exact_dc":
		if needNet() {
			fmt.Fprintf(sh.out, "saved %d literals\n", opt.ExactDCSimplify(sh.nw, 0))
		}

	case "levels":
		if needNet() {
			_, depth := sh.nw.Levels()
			fmt.Fprintf(sh.out, "logic depth: %d\n", depth)
		}

	case "resub":
		if !needNet() {
			break
		}
		alg := "ext"
		if len(args) == 1 {
			alg = args[0]
		}
		switch alg {
		case "sis":
			fmt.Fprintf(sh.out, "%d substitutions\n", opt.ResubAlgebraicJ(sh.nw, true, sh.workers))
		case "bdd":
			fmt.Fprintf(sh.out, "%d substitutions\n", opt.ResubBDD(sh.nw))
		case "basic", "ext", "extgdc":
			cfg := map[string]core.Config{"basic": core.Basic, "ext": core.Extended, "extgdc": core.ExtendedGDC}[alg]
			st := core.Substitute(sh.nw, core.Options{Config: cfg, POS: true, Pool: true, Workers: sh.workers})
			fmt.Fprintf(sh.out, "%d substitutions (%d POS, %d decompositions), %d RAR wires, lits %d -> %d\n",
				st.Substitutions, st.POSSubstitutions, st.Decompositions, st.WiresRemoved, st.LitsBefore, st.LitsAfter)
		default:
			sh.errf("unknown resub engine %q", alg)
		}

	case "gcx":
		if needNet() {
			fmt.Fprintf(sh.out, "extracted %d cubes\n", opt.Gcx(sh.nw))
		}

	case "gkx":
		if needNet() {
			fmt.Fprintf(sh.out, "extracted %d kernels\n", opt.Gkx(sh.nw))
		}

	case "decomp":
		if needNet() {
			fmt.Fprintf(sh.out, "created %d nodes\n", opt.Decomp(sh.nw))
		}

	case "redundancy":
		if needNet() {
			fmt.Fprintf(sh.out, "removed %d wires\n", opt.RemoveRedundancies(sh.nw, 1))
		}

	case "sat_sweep":
		if needNet() {
			fmt.Fprintf(sh.out, "merged %d nodes\n", opt.SATSweep(sh.nw))
		}

	case "script":
		if !needNet() {
			break
		}
		name := "A"
		if len(args) == 1 {
			name = args[0]
		}
		switch name {
		case "A":
			script.A(sh.nw)
		case "B":
			script.B(sh.nw)
		case "C":
			script.C(sh.nw)
		case "algebraic":
			script.Algebraic(sh.nw, script.ResubRAR(core.Extended))
		default:
			sh.errf("unknown script %q", name)
			break
		}
		fmt.Fprintf(sh.out, "lits(fac) = %d\n", sh.nw.FactoredLits())

	case "verify":
		if !needNet() {
			break
		}
		if sh.ref == nil {
			sh.errf("no checkpoint (set automatically at load; use checkpoint)")
			break
		}
		if verify.Equivalent(sh.ref, sh.nw) {
			fmt.Fprintln(sh.out, "equivalent to checkpoint")
		} else {
			fmt.Fprintln(sh.out, "NOT EQUIVALENT to checkpoint")
		}

	case "checkpoint":
		if needNet() {
			sh.ref = sh.nw.Clone()
			fmt.Fprintln(sh.out, "checkpoint set")
		}

	case "revert":
		if sh.ref == nil {
			sh.errf("no checkpoint")
			break
		}
		sh.nw = sh.ref.Clone()
		fmt.Fprintln(sh.out, "reverted to checkpoint")

	default:
		sh.errf("unknown command %q (try help)", cmd)
	}
	return true
}

func (sh *shell) load(nw *network.Network) {
	sh.nw = nw
	sh.ref = nw.Clone()
	fmt.Fprintf(sh.out, "loaded %s: %d PI, %d PO, %d nodes\n",
		nw.Name, len(nw.PIs()), len(nw.POs()), nw.NumNodes())
}
