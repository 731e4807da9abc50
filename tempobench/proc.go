package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one tempod process started by the benchmark.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	log  *os.File
}

// procSet tracks every process the run started, so each is stopped and
// waited for on every exit path.
type procSet struct {
	mu    sync.Mutex
	procs map[*proc]bool
}

func newProcSet() *procSet { return &procSet{procs: map[*proc]bool{}} }

// start execs tempod with args and waits for its "listening on" banner.
// Standard output and error go to <logDir>/<name>.log.
func (ps *procSet) start(bin, name, logDir string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(filepath.Join(logDir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), log: logf}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	ps.mu.Lock()
	ps.procs[p] = true
	ps.mu.Unlock()

	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, "listening on http://"); i >= 0 && !sent {
				u := strings.Fields(line[i+len("listening on "):])[0]
				urlc <- u
				sent = true
			}
		}
		if !sent {
			close(urlc)
		}
	}()
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	select {
	case u, ok := <-urlc:
		if !ok {
			ps.kill(p)
			return nil, fmt.Errorf("%s exited before listening (see %s.log)", name, name)
		}
		p.url = u
	case <-time.After(60 * time.Second):
		ps.kill(p)
		return nil, fmt.Errorf("%s did not announce its address within 60s", name)
	}
	return p, nil
}

// stop sends SIGTERM (tempod's graceful drain) and waits for the exit,
// escalating to SIGKILL after 30 seconds.
func (ps *procSet) stop(p *proc) {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	ps.forget(p)
}

// kill sends SIGKILL and waits for the exit.
func (ps *procSet) kill(p *proc) {
	p.cmd.Process.Kill()
	<-p.done
	ps.forget(p)
}

func (ps *procSet) forget(p *proc) {
	ps.mu.Lock()
	delete(ps.procs, p)
	ps.mu.Unlock()
	p.log.Close()
}

// killAll kills and reaps every process still running.
func (ps *procSet) killAll() {
	ps.mu.Lock()
	all := make([]*proc, 0, len(ps.procs))
	for p := range ps.procs {
		all = append(all, p)
	}
	ps.mu.Unlock()
	for _, p := range all {
		ps.kill(p)
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func peakRSSMB(p *proc) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// client is the load generator's HTTP client: keep-alive connections,
// at most conns of them per host.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole response.
func (c *client) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON GETs url and decodes a 200 response into v.
func (c *client) getJSON(url string, v any) error {
	code, data, err := c.do(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, code, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// waitHealthy polls /healthz until ok(body) holds, for up to 60 seconds.
func (c *client) waitHealthy(base string, ok func(h map[string]any) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var h map[string]any
		err := c.getJSON(base+"/healthz", &h)
		if err == nil && (ok == nil || ok(h)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready after 60s (last error: %v)", base, err)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// counters scrapes /metrics and returns the tempo_counter_total values by
// counter name.
func (c *client) counters(base string) (map[string]int64, error) {
	code, data, err := c.do(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %d", base, code)
	}
	out := map[string]int64{}
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, `tempo_counter_total{name="`)
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64); err == nil {
			out[name] = n
		}
	}
	return out, nil
}

// jobsDone reads the tempod_jobs{state="done"} gauge from /metrics.
func (c *client) jobsDone(base string) (int, error) {
	code, data, err := c.do(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("GET %s/metrics: %d", base, code)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, `tempod_jobs{state="done"} `); ok {
			return strconv.Atoi(strings.TrimSpace(rest))
		}
	}
	return 0, nil
}

// waitJobsDone polls until the daemon reports want done jobs, for up to 60
// seconds.
func (c *client) waitJobsDone(base string, want int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		n, err := c.jobsDone(base)
		if err == nil && n == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %d done jobs after 60s, want %d (last error: %v)", base, n, want, err)
		}
		time.Sleep(250 * time.Microsecond)
	}
}
