// Command tempod is the daemon form of the toolchain: consistency checks,
// streaming TAG sessions and mining jobs over HTTP/JSON, with admission
// control, checkpoint-backed crash recovery and Prometheus metrics.
//
// Usage:
//
//	tempod -data /var/lib/tempod                # listen on 127.0.0.1:8417
//	tempod -data ./state -addr 127.0.0.1:0      # ephemeral port (printed)
//
//	# a router fronting two workers:
//	tempod -role worker -data ./w1 -addr 127.0.0.1:8418
//	tempod -role worker -data ./w2 -addr 127.0.0.1:8419
//	tempod -role router -addr 127.0.0.1:8417 \
//	    -peers 'w1=http://127.0.0.1:8418,w2=http://127.0.0.1:8419' \
//	    -tenant-quotas 'free=1,2,2;*=8,64,64'
//
// Endpoints (standalone and worker; the router proxies the /v1 surface):
//
//	POST   /v1/check                    consistency check (tcgcheck -json)
//	POST   /v1/tag/sessions             open a streaming TAG session
//	POST   /v1/tag/sessions/{id}/events feed events to a session
//	GET    /v1/tag/sessions/{id}        poll a session
//	DELETE /v1/tag/sessions/{id}        close a session
//	POST   /v1/mining/jobs              submit an async mining job
//	GET    /v1/mining/jobs/{id}         poll a job
//	GET    /healthz                     liveness (503 while draining)
//	GET    /metrics                     Prometheus text exposition
//
// Workers additionally serve the /internal migration surface (epoch
// fencing, session/job export+import, quiesce, shutdown) the router uses
// for rebalance-by-checkpoint; the router adds /cluster/workers,
// /cluster/workers/{name}/drain and /cluster/steal for operators.
//
// SIGTERM/SIGINT drains gracefully: in-flight requests finish, sessions
// checkpoint, running mining attempts park as resumable checkpoints, and
// new requests are refused with 503. On a router, the drain walks every
// worker in sequence before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	role := flag.String("role", "standalone", "process role: 'standalone', 'worker' (serves /internal for a router) or 'router' (proxies to -peers)")
	addr := flag.String("addr", "127.0.0.1:8417", "listen address (port 0 picks an ephemeral port)")
	data := flag.String("data", "", "state directory for checkpoints and event logs (required unless -role router)")
	flag.StringVar(data, "data-dir", "", "alias for -data")
	gransFlag := flag.String("grans", "", "comma-separated periodic-granularity spec files to register")
	var defines cli.DefineFlags
	defines.Var()
	inflight := flag.Int("inflight", 8, "max concurrently running synchronous requests")
	queue := flag.Int("queue", 16, "max synchronous requests waiting for a slot (beyond: 429)")
	jobWorkers := flag.Int("job-workers", 2, "mining worker pool size")
	jobQueue := flag.Int("job-queue", 64, "max queued mining jobs (beyond: 429)")
	maxSessions := flag.Int("max-sessions", 1024, "max live streaming sessions")
	scanWorkers := flag.Int("workers", 0, "default TAG scan fan-out per mining job (0 = GOMAXPROCS)")
	ckptEvery := flag.Int("checkpoint-every", 8, "rewrite a session's checkpoint every Nth fed event (the event log covers the gap)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a drain may wait for in-flight work")
	peers := flag.String("peers", "", "router only: comma-separated name=url worker list")
	quotasFlag := flag.String("tenant-quotas", "", "router only: per-tenant quotas, 'name=inflight,sessions,jobs;...' ('*' names the default)")
	stealEvery := flag.Duration("steal-interval", 0, "router only: work-stealing pass interval (0 disables the background loop)")
	shutdownWorkers := flag.Bool("shutdown-workers", false, "router only: a router drain also asks each worker process to exit")
	version := cli.RegisterVersionFlag(flag.CommandLine)
	flag.Parse()
	if *version {
		cli.PrintVersion(os.Stdout)
		return
	}

	var err error
	switch *role {
	case "standalone", "worker":
		err = run(os.Stdout, *role == "worker", *addr, *data, *gransFlag, defines, *inflight, *queue,
			*jobWorkers, *jobQueue, *maxSessions, *scanWorkers, *ckptEvery, *drainTimeout)
	case "router":
		err = runRouter(os.Stdout, *addr, *peers, *quotasFlag, *stealEvery, *shutdownWorkers, *drainTimeout)
	default:
		err = fmt.Errorf("unknown -role %q (want standalone, worker or router)", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tempod:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, workerMode bool, addr, data, gransFlag string, defines []string, inflight, queue, jobWorkers, jobQueue,
	maxSessions, scanWorkers, ckptEvery int, drainTimeout time.Duration) error {
	if data == "" {
		return fmt.Errorf("-data is required")
	}
	// A worker's router can ask the process to exit over HTTP (the tail of
	// a cluster-wide drain); that request lands on the same graceful path
	// as SIGTERM.
	shutdownc := make(chan struct{}, 1)
	cfg := server.Config{
		DataDir:         data,
		Grans:           gransFlag,
		Defines:         defines,
		MaxInflight:     inflight,
		QueueDepth:      queue,
		JobWorkers:      jobWorkers,
		JobQueueDepth:   jobQueue,
		MaxSessions:     maxSessions,
		ScanWorkers:     scanWorkers,
		CheckpointEvery: ckptEvery,
	}
	if workerMode {
		cfg.Internal = true
		cfg.RequestShutdown = func() {
			select {
			case shutdownc <- struct{}{}:
			default:
			}
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The standalone line is a stable interface (scripts scrape it); the
	// worker role announces itself with a distinct prefix.
	if workerMode {
		fmt.Fprintf(out, "tempod worker listening on http://%s\n", ln.Addr())
	} else {
		fmt.Fprintf(out, "tempod listening on http://%s\n", ln.Addr())
	}

	hs := &http.Server{Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-shutdownc:
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(out, "tempod draining")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	if err := hs.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	fmt.Fprintln(out, "tempod stopped")
	return drainErr
}

// parsePeers reads the -peers syntax "name=url,name2=url2".
func parsePeers(spec string) ([]cluster.WorkerSpec, error) {
	var out []cluster.WorkerSpec
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		name, url = strings.TrimSpace(name), strings.TrimSpace(url)
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("peer %q wants name=url", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("peer %q named twice", name)
		}
		seen[name] = true
		out = append(out, cluster.WorkerSpec{Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-role router requires -peers name=url[,name=url...]")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func runRouter(out io.Writer, addr, peers, quotasFlag string, stealEvery time.Duration, shutdownWorkers bool, drainTimeout time.Duration) error {
	specs, err := parsePeers(peers)
	if err != nil {
		return err
	}
	quotas, err := cluster.ParseQuotas(quotasFlag)
	if err != nil {
		return err
	}
	rt, err := cluster.New(cluster.Config{
		Workers:       specs,
		Quotas:        quotas,
		StealInterval: stealEvery,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tempod router listening on http://%s (%d workers)\n", ln.Addr(), len(specs))

	hs := &http.Server{Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()

	fmt.Fprintln(out, "tempod router draining cluster")
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := rt.Drain(dctx, shutdownWorkers)
	if err := hs.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	fmt.Fprintln(out, "tempod router stopped")
	return drainErr
}
