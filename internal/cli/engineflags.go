package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
)

// EngineFlags holds the execution-control flags every solver command
// shares: -timeout (wall-clock deadline), -budget (work-unit cap) and
// -stats (print the engine counter table on exit). Register with
// RegisterEngineFlags, build the engine.Config with Config after parsing,
// and defer Finish to release the deadline and print the table.
type EngineFlags struct {
	Timeout time.Duration
	Budget  int64
	Stats   bool
	// StatsFormat picks the -stats rendering: "table" (aligned two-column
	// table) or "prom" (Prometheus text exposition, the same bytes tempod
	// serves on /metrics).
	StatsFormat string

	counters *engine.Counters
	cancel   context.CancelFunc
}

// RegisterEngineFlags registers -timeout, -budget, -stats and
// -stats-format on fs.
func RegisterEngineFlags(fs *flag.FlagSet) *EngineFlags {
	ef := &EngineFlags{}
	fs.DurationVar(&ef.Timeout, "timeout", 0, "abort the solve after this wall-clock duration (0 = none)")
	fs.Int64Var(&ef.Budget, "budget", 0, "abort the solve after this many work units (0 = unbounded)")
	fs.BoolVar(&ef.Stats, "stats", false, "print engine counters and stage timings on exit")
	fs.StringVar(&ef.StatsFormat, "stats-format", "table", "render -stats as 'table' or 'prom' (Prometheus text exposition)")
	return ef
}

// Config materializes the flags as an engine.Config. A -timeout starts its
// deadline now; Finish releases it.
func (ef *EngineFlags) Config() engine.Config {
	cfg := engine.Config{Budget: ef.Budget}
	if ef.Timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), ef.Timeout)
		ef.cancel = cancel
		cfg.Ctx = ctx
	}
	if ef.Stats {
		ef.counters = engine.NewCounters()
		cfg.Observer = ef.counters
	}
	return cfg
}

// Finish releases the -timeout context and, under -stats, writes the
// counter table to w. Safe to call when Config was never called.
func (ef *EngineFlags) Finish(w io.Writer) {
	if ef.cancel != nil {
		ef.cancel()
		ef.cancel = nil
	}
	if ef.counters != nil {
		if ef.StatsFormat == "prom" {
			engine.WriteMetricsText(w, ef.counters)
		} else {
			ef.counters.WriteTable(w)
		}
	}
}

// ReportInterrupted prints a one-line diagnostic for budget/deadline
// interruptions and reports whether err was one; any other error (or nil)
// returns false so the caller can fail normally.
func ReportInterrupted(w io.Writer, err error) bool {
	var ip *engine.Interrupted
	if errors.As(err, &ip) {
		fmt.Fprintf(w, "INTERRUPTED (%s) after %d work units\n", ip.Reason, ip.Steps)
		return true
	}
	return false
}
