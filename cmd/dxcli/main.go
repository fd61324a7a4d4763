// Command dxcli is a small command-line front end to the library: it loads
// a data exchange setting and a source instance from files and chases,
// computes CWA-solutions, or answers queries.
//
// Usage:
//
//	dxcli chase   -setting FILE -source FILE
//	dxcli alpha   -setting FILE -source FILE -target FILE   (justification witnesses)
//	dxcli core    -setting FILE -source FILE
//	dxcli cansol  -setting FILE -source FILE
//	dxcli exists  -setting FILE -source FILE
//	dxcli check   -setting FILE -source FILE -target FILE
//	dxcli certain -setting FILE -source FILE -query 'q(x) :- E(x,y).' [-sem certain-cap|certain-cup|maybe-cap|maybe-cup]
//	dxcli enum    -setting FILE -source FILE [-max N]
//	dxcli apply   -setting FILE -source FILE -mutations FILE [-crosscheck]
//	dxcli info    -setting FILE
//
// apply replays a mutation script (lines of "+ A(a,b)." / "- B(c)." with
// # comments) against the incremental-maintenance engine: the initial
// source is chased once, then each line is applied as one batch — inserts
// delta-chase, deletes retract through the justification graph — and the
// final maintained solution is printed. With -crosscheck the result is
// verified against a from-scratch chase of the mutated source
// (hom-equivalence both ways plus core isomorphism). Settings that are not
// weakly acyclic are accepted too: their chase may not terminate, so the
// engine skips the initial chase and chases only the mutated source, under
// -max-steps and -timeout.
//
// Every command also accepts -max-steps (chase step budget), -timeout
// (wall-clock limit; the run aborts with ErrCanceled), -workers (goroutines
// for certain/enum; 0 = GOMAXPROCS), -metrics (print evaluation counters
// to stderr on exit), and the profiling flags -cpuprofile FILE /
// -memprofile FILE (pprof profiles, written even when the run ends in an
// error — so a -timeout'd run can still be profiled).
//
// Exit codes (the same table internal/status maps to dxserver's HTTP
// statuses, so shell scripts and HTTP clients share one taxonomy):
//
//	0  success
//	1  no (CWA-)solution exists (the chase failed on an egd)
//	2  usage or parse error (bad flags, malformed setting/instance/query)
//	3  resource limit: -timeout expired, -max-steps budget exhausted, or a
//	   size bound (too many nulls, enumeration truncated) refused the run
//	4  internal/unexpected error
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"repro"
	"repro/internal/cwa"
	"repro/internal/hom"
	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/internal/score"
	"repro/internal/status"
)

// showMetrics makes fatal and the normal exit path print the counter
// snapshot, so a run aborted by -timeout still reports its effort.
var showMetrics bool

// stopProfiles flushes any active pprof profiles. It is installed by
// startProfiles and invoked from both exit paths (normal return and fatal),
// so profiles survive runs that end in an error. Idempotent.
var stopProfiles = func() {}

// startProfiles begins CPU profiling and arranges for the heap profile,
// according to the -cpuprofile/-memprofile flags.
func startProfiles(cpu, mem string) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		cpuFile = f
	}
	stopProfiles = func() {
		stopProfiles = func() {}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dxcli: -memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dxcli: -memprofile:", err)
		}
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	settingPath := fs.String("setting", "", "path to the setting file")
	sourcePath := fs.String("source", "", "path to the source instance file")
	targetPath := fs.String("target", "", "path to a target instance file (for check)")
	queryText := fs.String("query", "", "query text (for certain)")
	mutationsPath := fs.String("mutations", "", "path to a mutation script (for apply)")
	crosscheck := fs.Bool("crosscheck", false, "verify the maintained result against a from-scratch chase (for apply)")
	semName := fs.String("sem", "certain-cap", "semantics: certain-cap, certain-cup, maybe-cap, maybe-cup")
	maxSteps := fs.Int("max-steps", 0, "chase step budget (0 = default)")
	maxSols := fs.Int("max", 0, "maximum solutions to enumerate (0 = unbounded)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit; aborts with ErrCanceled (0 = none)")
	workers := fs.Int("workers", 0, "worker goroutines for certain/enum (0 = GOMAXPROCS, 1 = sequential)")
	fs.BoolVar(&showMetrics, "metrics", false, "print evaluation counters to stderr on exit")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(os.Args[2:]); err != nil {
		fatal(status.WithKind(err, status.Usage))
	}
	startProfiles(*cpuProfile, *memProfile)

	s := loadSetting(*settingPath)
	opt := repro.ChaseOptions{MaxSteps: *maxSteps}
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opt.Ctx = ctx
	}

	switch cmd {
	case "info":
		fmt.Print(s)
		fmt.Println("weakly acyclic: ", repro.WeaklyAcyclic(s))
		fmt.Println("richly acyclic: ", repro.RichlyAcyclic(s))
		fmt.Println("egds only:      ", s.EgdsOnly())
		fmt.Println("full tgds+egds: ", s.FullAndEgds())
	case "chase":
		src := loadInstance(*sourcePath)
		res, err := repro.Chase(s, src, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("steps: %d\nuniversal solution: %v\n", res.Steps, res.Target)
	case "core":
		src := loadInstance(*sourcePath)
		core, err := repro.CWASolution(s, src, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("minimal CWA-solution (core): %v\n", core)
	case "cansol":
		src := loadInstance(*sourcePath)
		can, err := repro.CanSol(s, src, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("canonical solution: %v\n", can)
	case "exists":
		src := loadInstance(*sourcePath)
		ok, err := repro.ExistsCWASolution(s, src, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println("CWA-solution exists:", ok)
	case "check":
		src := loadInstance(*sourcePath)
		tgt := loadInstance(*targetPath)
		fmt.Println("solution:         ", repro.IsSolution(s, src, tgt))
		fmt.Println("CWA-presolution:  ", repro.IsCWAPresolution(s, src, tgt))
		ok, err := repro.IsCWASolution(s, src, tgt, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println("CWA-solution:     ", ok)
	case "alpha":
		src := loadInstance(*sourcePath)
		tgt := loadInstance(*targetPath)
		alpha, ok := cwa.FindPresolutionAlpha(s, src, tgt)
		if !ok {
			fmt.Println("not a CWA-presolution: no justification assignment produces it")
			os.Exit(1)
		}
		fmt.Println("justification witnesses (α restricted to the used justifications):")
		keys := make([]string, 0, len(alpha))
		for k := range alpha {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			w := alpha[k]
			if len(w) == 0 {
				fmt.Printf("  %s  (full tgd, no existential values)\n", k)
				continue
			}
			vars := make([]string, 0, len(w))
			for z := range w {
				vars = append(vars, z)
			}
			sort.Strings(vars)
			fmt.Printf("  %s  ↦ ", k)
			for i, z := range vars {
				if i > 0 {
					fmt.Print(", ")
				}
				fmt.Printf("%s=%v", z, w[z])
			}
			fmt.Println()
		}
	case "certain":
		src := loadInstance(*sourcePath)
		u, err := repro.ParseUCQ(*queryText)
		if err != nil {
			fatal(status.WithKind(fmt.Errorf("parsing query: %w", err), status.Usage))
		}
		sem, ok := map[string]repro.Semantics{
			"certain-cap": repro.CertainCap,
			"certain-cup": repro.CertainCup,
			"maybe-cap":   repro.MaybeCap,
			"maybe-cup":   repro.MaybeCup,
		}[*semName]
		if !ok {
			fatal(status.WithKind(fmt.Errorf("unknown semantics %q", *semName), status.Usage))
		}
		ans, err := repro.Answers(s, u, src, sem, repro.CertainOptions{Chase: opt, Workers: *workers})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s answers: %v\n", *semName, ans)
	case "enum":
		src := loadInstance(*sourcePath)
		sols, err := repro.EnumerateCWASolutions(s, src,
			repro.EnumOptions{MaxSolutions: *maxSols, ChaseOptions: opt, Workers: *workers})
		if errors.Is(err, cwa.ErrEnumerationTruncated) && *maxSols > 0 {
			// Hitting a user-requested cap is the expected outcome, not a
			// failure; report the (possibly partial) space.
			fmt.Fprintln(os.Stderr, "dxcli: enumeration truncated at -max bound")
		} else if err != nil {
			fatal(err)
		}
		cwa.SortBySize(sols)
		fmt.Print(cwa.DescribeSpace(sols))
	case "apply":
		src := loadInstance(*sourcePath)
		runApply(s, src, *mutationsPath, *crosscheck, opt)
	default:
		usage()
	}
	stopProfiles()
	reportMetrics()
}

// runApply implements the apply command: replay a mutation script against
// the incremental engine, one script line per batch, then print (and
// optionally crosscheck) the maintained solution.
func runApply(s *repro.Setting, src *repro.Instance, path string, crosscheck bool, opt repro.ChaseOptions) {
	if path == "" {
		fatal(status.WithKind(fmt.Errorf("-mutations is required"), status.Usage))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(status.WithKind(err, status.Usage))
	}
	muts, err := incr.ParseScript(string(data))
	if err != nil {
		fatal(status.WithKind(err, status.Usage))
	}
	eng, err := incr.New(s, src, opt)
	if err != nil {
		fatal(err)
	}
	res, err := eng.Apply(muts, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("applied: +%d -%d (version %d", res.Inserted, res.Deleted, res.Version)
	if res.Fallback {
		fmt.Print(", full re-chase")
	} else {
		fmt.Printf(", %d delta steps", res.Steps)
	}
	fmt.Println(")")
	if res.NoSolution {
		// Surface the recorded egd failure with the standard exit code.
		_, err := eng.Solution(opt)
		fatal(err)
	}
	sol, err := eng.Solution(opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("maintained solution: %v\n", sol)
	if crosscheck {
		scratch, err := repro.Chase(s, eng.SourceSnapshot(), opt)
		if err != nil {
			fatal(fmt.Errorf("crosscheck chase: %w", err))
		}
		if !hom.Exists(sol, scratch.Target) || !hom.Exists(scratch.Target, sol) {
			fatal(fmt.Errorf("crosscheck failed: maintained solution is not hom-equivalent to a from-scratch chase"))
		}
		if !hom.Isomorphic(score.Core(sol), score.Core(scratch.Target)) {
			fatal(fmt.Errorf("crosscheck failed: cores are not isomorphic"))
		}
		fmt.Println("crosscheck: ok (hom-equivalent, isomorphic cores)")
	}
}

// reportMetrics prints the counter snapshot to stderr when -metrics is set.
func reportMetrics() {
	if showMetrics {
		fmt.Fprintln(os.Stderr, "metrics:", metrics.Read())
	}
}

func loadSetting(path string) *repro.Setting {
	if path == "" {
		fatal(status.WithKind(fmt.Errorf("-setting is required"), status.Usage))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(status.WithKind(err, status.Usage))
	}
	s, err := repro.ParseSetting(string(data))
	if err != nil {
		fatal(status.WithKind(fmt.Errorf("parsing %s: %w", path, err), status.Usage))
	}
	return s
}

func loadInstance(path string) *repro.Instance {
	if path == "" {
		fatal(status.WithKind(fmt.Errorf("-source/-target file is required"), status.Usage))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(status.WithKind(err, status.Usage))
	}
	ins, err := repro.ParseInstance(string(data))
	if err != nil {
		fatal(status.WithKind(fmt.Errorf("parsing %s: %w", path, err), status.Usage))
	}
	return ins
}

// fatal reports the error and exits with the internal/status exit code for
// its classification (see the package comment's table).
func fatal(err error) {
	stopProfiles()
	reportMetrics()
	fmt.Fprintln(os.Stderr, "dxcli:", err)
	code := status.Classify(err).ExitCode()
	if code == 0 {
		code = 4 // fatal is never called on success
	}
	os.Exit(code)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: dxcli <chase|alpha|core|cansol|exists|check|certain|enum|apply|info> [flags]
run "dxcli <cmd> -h" for flags`)
	os.Exit(2)
}
