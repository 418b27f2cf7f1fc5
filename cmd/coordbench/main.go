// Command coordbench regenerates every experiment in the reproduction —
// one table or figure per quantitative claim in the paper (see DESIGN.md
// §3 for the index). With -markdown it emits the body of EXPERIMENTS.md.
//
// Usage:
//
//	coordbench                    # run all experiments, ASCII report
//	coordbench -experiment T3     # one experiment
//	coordbench -quick             # reduced sweeps (CI-sized)
//	coordbench -trials 50000      # raise the Monte-Carlo budget
//	coordbench -markdown          # markdown output (EXPERIMENTS.md body)
//
// With -server it is a sweep client instead: it submits a parameter
// sweep to a running coordd, waits for every cell, and prints the
// rolled-up L/U tradeoff table.
//
//	coordbench -server http://127.0.0.1:8344 \
//	    -sweep '{"base": {"protocol": "s:0.1", "trials": 20000}, "axes": {"rounds": [10, 100]}}'
//	coordbench -server http://127.0.0.1:8344 -sweep @sweep.json
//
// Exit status is nonzero if any experiment's claim check fails (or, in
// server mode, if any sweep cell failed or was cancelled).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"coordattack/internal/experiments"
	"coordattack/internal/table"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("coordbench", flag.ContinueOnError)
	var (
		expID    = fs.String("experiment", "", "run only this experiment id (e.g. T3, F1)")
		trials   = fs.Int("trials", 0, "Monte-Carlo trials per point (0 = default)")
		seed     = fs.Uint64("seed", 0, "root seed (0 = default 1992)")
		quick    = fs.Bool("quick", false, "reduced sweeps")
		markdown = fs.Bool("markdown", false, "emit markdown instead of ASCII")
		jsonOut  = fs.Bool("json", false, "emit machine-readable JSON (one object per experiment)")
		outPath  = fs.String("out", "", "also write the report to this file")
		server   = fs.String("server", "", "client mode: submit a sweep to the coordd at this base URL")
		sweep    = fs.String("sweep", "", "with -server: sweep spec JSON, or @file")
		wait     = fs.Duration("wait", 10*time.Minute, "with -server: how long to wait for the sweep to settle")
		priority = fs.Int("priority", 0, "with -server: scheduling priority stamped on the sweep's base spec (-100..100, higher runs first)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *server != "" {
		return runServer(*server, *sweep, *priority, *wait, out)
	}
	if *priority != 0 {
		fmt.Fprintln(os.Stderr, "coordbench: -priority needs -server")
		return 2
	}
	if *sweep != "" {
		fmt.Fprintln(os.Stderr, "coordbench: -sweep needs -server")
		return 2
	}
	opt := experiments.Options{Trials: *trials, Seed: *seed, Quick: *quick}

	var fileSink *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		fileSink = f
	}
	emit := func(text string) {
		fmt.Fprint(out, text)
		if fileSink != nil {
			fmt.Fprint(fileSink, text)
		}
	}

	var list []experiments.Experiment
	if *expID != "" {
		e, err := experiments.ByID(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		list = []experiments.Experiment{e}
	} else {
		list = experiments.All()
	}

	failures := 0
	type verdictRow struct {
		id, claim string
		ok        bool
	}
	var verdicts []verdictRow
	for _, e := range list {
		res, err := e.Run(opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "coordbench: %s: %v\n", e.ID, err)
			return 1
		}
		switch {
		case *jsonOut:
			data, err := res.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "coordbench: %s: %v\n", e.ID, err)
				return 1
			}
			emit(string(data))
			emit("\n")
		case *markdown:
			emit(res.Markdown())
		default:
			emit(res.Render())
			emit("\n")
		}
		verdicts = append(verdicts, verdictRow{id: res.ID, claim: res.Claim, ok: res.OK})
		if !res.OK {
			failures++
		}
	}
	if len(verdicts) > 1 && !*markdown && !*jsonOut {
		summary := table.New("summary", "experiment", "verdict", "claim")
		for _, v := range verdicts {
			verdict := "PASS"
			if !v.ok {
				verdict = "FAIL"
			}
			summary.AddRow(v.id, verdict, v.claim)
		}
		emit(summary.Render())
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "coordbench: %d experiment(s) failed their claim checks\n", failures)
		return 1
	}
	return 0
}
