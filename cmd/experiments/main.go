// Command experiments regenerates the paper's experimental tables (II–V):
// factored-form literal counts and CPU times for SIS-style algebraic
// resubstitution versus the three RAR-based Boolean substitution
// configurations, over the benchmark suite.
//
// Usage:
//
//	experiments [-table N] [-circuits a,b,c] [-algs sis,ext] [-list] [-j N] [-v] [-json]
//
// With no flags all four tables run over the whole suite. -j bounds the
// worker pool of the substitution engine's batch scheduler (results and
// counters are identical at any value; the SIS baseline runs serially); -v
// additionally prints the engine's observability counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cliutil"
	"repro/internal/exp"
)

func main() {
	table := flag.Int("table", 0, "table to reproduce (2-5); 0 = all")
	circuits := flag.String("circuits", "", "comma-separated benchmark subset (default: all)")
	algs := flag.String("algs", "", "comma-separated algorithm subset (default: "+strings.Join(exp.Algorithms, ",")+")")
	list := flag.Bool("list", false, "list benchmark names and exit")
	asJSON := flag.Bool("json", false, "emit results as JSON instead of tables")
	workers := flag.Int("j", 0, "substitution planner workers (0 = GOMAXPROCS); results identical at any value")
	verbose := flag.Bool("v", false, "print substitution engine counters (trials, cache traffic, batch speculation, pass times)")
	prof := cliutil.ProfileFlags()
	flag.Parse()
	*workers = cliutil.ClampWorkers(*workers, os.Stderr)
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer prof.StopAndReport("experiments", os.Stderr)

	if *list {
		for _, n := range bench.Names() {
			fmt.Println(n)
		}
		return
	}
	var names []string
	if *circuits != "" {
		names = strings.Split(*circuits, ",")
	}
	var algNames []string
	if *algs != "" {
		algNames = strings.Split(*algs, ",")
	}
	tables := []int{2, 3, 4, 5}
	if *table != 0 {
		if *table < 2 || *table > 6 {
			fmt.Fprintln(os.Stderr, "experiments: -table must be 2-5 (paper) or 6 (extension: script.boolean)")
			os.Exit(2)
		}
		tables = []int{*table}
	}
	ok := true
	var results []exp.Table
	for _, t := range tables {
		res, err := exp.RunWith(t, names, exp.RunOptions{
			Workers:    *workers,
			Algorithms: algNames,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			flag.Usage()
			os.Exit(2)
		}
		if !res.AllEquivalent() {
			ok = false
		}
		if *asJSON {
			results = append(results, res)
			continue
		}
		res.Print(os.Stdout)
		fmt.Println()
		if *verbose {
			res.PrintStats(os.Stdout)
			fmt.Println()
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "experiments: equivalence check FAILED for at least one cell")
		os.Exit(1)
	}
}
