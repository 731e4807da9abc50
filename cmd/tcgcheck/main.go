// Command tcgcheck checks an event structure for consistency: it runs the
// paper's approximate constraint propagation and prints the derived
// per-granularity constraints, optionally followed by the exact
// bounded-horizon decision.
//
// Usage:
//
//	tcgcheck -spec structure.json [-exact] [-from 1996] [-to 1999] [-json]
//
// The shared solver flags -timeout, -budget and -stats bound the solve and
// print the engine counter table; an interrupted solve reports INTERRUPTED
// with the work done so far instead of failing. -json emits the canonical
// JSON result instead of text — byte-identical to the tempod server's
// POST /v1/check response for the same spec.
//
// The spec format is the JSON form of core.Spec, e.g.:
//
//	{"edges":[{"from":"X0","to":"X1","constraints":[{"min":1,"max":1,"gran":"b-day"}]}]}
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
)

func main() {
	specPath := flag.String("spec", "", "path to the structure spec JSON (default: stdin)")
	runExact := flag.Bool("exact", false, "also run the exact bounded-horizon solver")
	fromYear := flag.Int("from", 1996, "exact horizon start year")
	toYear := flag.Int("to", 1999, "exact horizon end year")
	grans := flag.String("grans", "", "comma-separated periodic-granularity spec files to register")
	var defines cli.DefineFlags
	defines.Var()
	dot := flag.String("dot", "", "write the structure as Graphviz DOT to this file")
	jsonOut := flag.Bool("json", false, "emit the canonical JSON result instead of text")
	version := cli.RegisterVersionFlag(flag.CommandLine)
	ef := cli.RegisterEngineFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		cli.PrintVersion(os.Stdout)
		return
	}

	if err := run(os.Stdout, *specPath, *grans, defines, *dot, *runExact, *fromYear, *toYear, *jsonOut, ef); err != nil {
		fmt.Fprintln(os.Stderr, "tcgcheck:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, specPath, gransFlag string, defines []string, dotPath string, runExact bool, fromYear, toYear int, jsonOut bool, ef *cli.EngineFlags) error {
	eng := ef.Config()
	defer ef.Finish(out)
	sys, err := cli.LoadSystem(gransFlag, defines)
	if err != nil {
		return err
	}
	var s *core.EventStructure
	if specPath != "" {
		var err error
		s, _, err = cli.LoadStructure(specPath)
		if err != nil {
			return err
		}
	} else {
		sp, err := core.ReadSpec(os.Stdin)
		if err != nil {
			return err
		}
		s, err = sp.Structure()
		if err != nil {
			return err
		}
	}
	if dotPath != "" {
		df, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		if err := s.WriteDOT(df, "structure"); err != nil {
			df.Close()
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
	}

	res, err := cli.RunCheck(sys, s, cli.CheckOptions{
		Exact: runExact, FromYear: fromYear, ToYear: toYear, Engine: eng,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		return res.EncodeJSON(out)
	}
	return res.RenderText(out)
}
