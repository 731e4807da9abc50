// Command tempobench is the repository's benchmark. It drives tempod, the
// daemon that serves the paper's three tasks: TCG consistency checks
// (POST /v1/check), TAG recognition over streaming sessions, and event
// discovery as mining jobs.
//
// A run with -trace 0 starts cmd/tempod as its own process(es), sends one
// workload's seeded inputs from this process over HTTP, checks every answer
// against the in-process library, and prints the end-to-end metrics. A run
// with -trace 1 does the same and then replays the same inputs in-process
// through each layer's public functions, recording spans around every call,
// and prints the per-layer metrics.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it hold the full
// report (environment stamp, sample counts, notes). See NOTES.md.
//
// run.sh builds tempod and this binary and passes -root and -bin.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// workloads maps a workload name to its run function.
var workloads = map[string]func(*bench) error{
	"check":  runCheck,
	"stream": runStream,
	"mine":   runMine,
}

func main() {
	workload := flag.String("workload", "", "workload: check, stream or mine")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal run length; sets the fixed amount of work")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and prints per-layer metrics")
	root := flag.String("root", ".", "repository checkout (the working directory of the run)")
	bin := flag.String("bin", "", "directory holding the tempod binary built from the checkout")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: tempobench -bin DIR --workload check|stream|mine --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tempobench:", err)
		os.Exit(2)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		tempod:   filepath.Join(*bin, "tempod"),
		workDir:  filepath.Join(absRoot, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		rep:      newReport(*workload, *seed, *trace == 1),
		procs:    newProcSet(),
	}
	// A signal to the benchmark still stops every tempod it started.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		b.procs.killAll()
		os.Exit(130)
	}()

	code := b.execute(run, absRoot)
	os.Exit(code)
}

// execute runs one workload and prints the report. It returns the exit
// code: 0 for a correct run, 1 when a check failed or the run could not
// finish (then no result line is printed).
func (b *bench) execute(run func(*bench) error, root string) int {
	defer b.procs.killAll()
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tempobench:", err)
		return 1
	}
	b.rep.Env = stampEnv(root, b.workDir, b.seed)
	err := run(b)
	b.procs.killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tempobench:", err)
		return 1
	}
	// Run directories hold logs, checkpoints and fsynced event logs; a
	// finished run keeps none of it.
	if b.rep.Correct {
		os.RemoveAll(b.workDir)
	}
	full, _ := json.MarshalIndent(b.rep, "", "  ")
	fmt.Println(string(full))
	line, _ := json.Marshal(b.rep.result())
	fmt.Println(string(line))
	if !b.rep.Correct {
		return 1
	}
	return 0
}

// bench carries one run's settings and its report.
type bench struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tempod   string
	workDir  string
	rep      *report
	procs    *procSet
}
