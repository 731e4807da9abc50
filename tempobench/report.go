package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metric is one reported number with its unit and the number of samples
// behind it (1 for a single measurement or a count).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	What    string  `json:"what,omitempty"`
}

// endToEnd names the metrics every workload prints on an untraced run
// (BENCHMARK.json's end_to_end list). Each workload says in the metric's
// "what" which operation it counts; the full report may carry more.
var endToEnd = []string{"throughput_per_s", "p50_ms", "tail_ms", "setup_s", "recover_s", "peak_rss_mb"}

// report is everything one run prints: the environment stamp, every
// metric with its sample count, and the outcome of the correctness checks.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Env       envStamp          `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Checks    []string          `json:"checks"`
	Problems  []string          `json:"problems,omitempty"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

func newReport(workload string, seed int64, trace bool) *report {
	r := &report{Workload: workload, Seed: seed, Trace: trace, Correct: true, EndToEnd: map[string]metric{}}
	if trace {
		r.PerLayer = map[string]metric{}
	}
	return r
}

// e2e records an end-to-end metric and what it measures on this workload.
func (r *report) e2e(name string, v float64, unit string, samples int, what string) {
	r.EndToEnd[name] = metric{Value: v, Unit: unit, Samples: samples, What: what}
}

// layer records a per-layer metric.
func (r *report) layer(name string, v float64, unit string, samples int) {
	if r.PerLayer != nil {
		r.PerLayer[name] = metric{Value: v, Unit: unit, Samples: samples}
	}
}

// check records a passed correctness check.
func (r *report) check(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

// mismatch records a failed correctness check; the run is then incorrect.
func (r *report) mismatch(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// fail counts one failed operation and keeps its error text.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// result is the last output line: end-to-end metrics on untraced runs,
// per-layer metrics on traced ones.
func (r *report) result() any {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]vu{}
	if r.Trace {
		for k, m := range r.PerLayer {
			ms[k] = vu{Value: m.Value, Unit: m.Unit}
		}
	} else {
		for _, k := range endToEnd {
			if m, ok := r.EndToEnd[k]; ok {
				ms[k] = vu{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	return struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

// envStamp identifies the machine, toolchain and source a run measured.
type envStamp struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256,omitempty"`
	DataDirFS    string `json:"data_dir_fs"`
	FlushPolicy  string `json:"flush_policy"`
	Seed         int64  `json:"seed"`
}

// flushPolicy describes the durability settings tempod runs with here:
// its defaults, unchanged.
const flushPolicy = "tempod defaults: fsync per appended session event, session checkpoint every 8 events, " +
	"job event logs fsynced on close, records replaced by temp file + fsync + rename + directory fsync"

func stampEnv(root, dataDir string, seed int64) envStamp {
	env := envStamp{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      gitCommit(root),
		DataDirFS:   fsType(dataDir),
		FlushPolicy: flushPolicy,
		Seed:        seed,
	}
	if env.Commit == "unknown" {
		env.SourceSHA256 = sourceDigest(root)
	}
	return env
}

// gitCommit names the checked-out commit, or "unknown" when the checkout
// is not a git work tree of its own (the source digest identifies the code
// then).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the checkout. It
// stands in for the commit when the checkout is an export without git
// metadata, so two runs can still tell whether they measured the same code.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\n", rel)
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh)
			fh.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// fastQuartile is the faster quartile of repeated measurements of the same
// work: the upper quartile of rates, the lower quartile of times.
// Interference from other tenants of a shared machine only ever slows a
// pass, so the faster quartile tracks the program's own speed while still
// resting on a quarter of the passes, not on the single luckiest one.
func fastQuartile(xs []float64, higherIsBetter bool) float64 {
	xs = append([]float64(nil), xs...)
	if higherIsBetter {
		return percentile(xs, 0.75)
	}
	return percentile(xs, 0.25)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
