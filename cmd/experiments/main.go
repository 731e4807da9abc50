// Command experiments regenerates the tables of EXPERIMENTS.md: every
// figure/theorem/claim of the paper has one experiment (see DESIGN.md's
// index).
//
// Usage:
//
//	experiments            # run all experiments at full size
//	experiments -e E3      # run one experiment
//	experiments -quick     # trimmed sweeps (what the tests run)
//	experiments -list      # list experiment IDs
//
// The shared solver flags -timeout, -budget and -stats bound each solver
// call and print the engine counter table after the tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	id := flag.String("e", "", "run only this experiment (E1..E13)")
	quick := flag.Bool("quick", false, "trim sweeps for a fast run")
	list := flag.Bool("list", false, "list experiments and exit")
	md := flag.Bool("md", false, "emit GitHub-flavored Markdown tables")
	version := cli.RegisterVersionFlag(flag.CommandLine)
	ef := cli.RegisterEngineFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		cli.PrintVersion(os.Stdout)
		return
	}

	if err := run(os.Stdout, *id, *quick, *list, *md, ef); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, id string, quick, list, md bool, ef *cli.EngineFlags) error {
	eng := ef.Config()
	defer ef.Finish(w)
	render := func(tab experiments.Table) {
		if md {
			tab.RenderMarkdown(w)
		} else {
			tab.Render(w)
		}
	}
	if list {
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Desc)
		}
		return nil
	}
	if id != "" {
		e, ok := experiments.Find(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		render(e.Run(quick, eng))
		return nil
	}
	for _, e := range experiments.All() {
		render(e.Run(quick, eng))
	}
	return nil
}
