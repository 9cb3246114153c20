package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// proc is one process of the system under test.
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once cmd.Wait has returned
	addr string        // HTTP listen address (daemons)
}

// live tracks every started process so that an error path or a signal
// can reap them all; nothing the benchmark starts may outlive it.
var live struct {
	mu    sync.Mutex
	procs map[*proc]struct{}
}

// spawn starts a process with its standard output and error appended to
// logPath. stdout, when non-nil, receives the standard output instead.
func spawn(name, logPath string, stdout io.Writer, argv ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if stdout != nil {
		cmd.Stdout = stdout
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{cmd: cmd, log: logf, done: make(chan struct{})}
	live.mu.Lock()
	if live.procs == nil {
		live.procs = map[*proc]struct{}{}
	}
	live.procs[p] = struct{}{}
	live.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a process we signalled carries no information
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop ends the process and waits until it is gone: SIGTERM first (hmmd
// drains and exits), SIGKILL if that takes longer than grace. Stopping
// a stopped process does nothing.
func (p *proc) stop(grace time.Duration) {
	live.mu.Lock()
	_, running := live.procs[p]
	live.mu.Unlock()
	if !running {
		return
	}
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it just exited
		select {
		case <-p.done:
		case <-time.After(grace):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
	live.mu.Lock()
	delete(live.procs, p)
	live.mu.Unlock()
}

// reapAll stops every process still running.
func reapAll() {
	live.mu.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.mu.Unlock()
	for _, p := range ps {
		p.stop(2 * time.Second)
	}
}

// freeAddr asks the kernel for a loopback port nobody is using. The
// port is released before the daemon binds it, which is the best that
// can be done for a program that takes its address as a flag and does
// not report the one it bound at this log level.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// sut is a started system under test: for the daemon workloads its
// processes and the base URL requests go to.
type sut struct {
	procs []*proc
	url   string // http://host:port of the front end (standalone daemon or coordinator)
}

func (s *sut) stop() {
	// Front end last, so workers say goodbye to a live coordinator.
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop(5 * time.Second)
	}
}

// env is where a run finds the daemon binary and keeps its files.
type env struct {
	hmmd   string // prebuilt cmd/hmmd
	outDir string // logs, traces, results
	qos    string // QoS policy for cluster-small
}

// pollClient talks to the daemons' /healthz and /metrics; it is
// separate from the load generator's client so that its connections
// are not among the two the workload is sized for.
var pollClient = &http.Client{Timeout: 5 * time.Second}

// startDaemon starts one hmmd and waits until it answers /healthz.
func (e env) startDaemon(ctx context.Context, workload, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	argv := append([]string{e.hmmd, "-addr", addr, "-log-level", "error"}, args...)
	p, err := spawn(name, filepath.Join(e.outDir, "hmmd-"+workload+"-"+name+".log"), nil, argv...)
	if err != nil {
		return nil, err
	}
	p.addr = addr
	if err := waitFor(ctx, p, func() bool {
		resp, err := pollClient.Get("http://" + addr + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		p.stop(time.Second)
		return nil, fmt.Errorf("%s never became healthy: %w (see %s)", name, err, p.log.Name())
	}
	return p, nil
}

// waitFor polls cond every millisecond until it holds, the process
// dies, ctx ends or ten seconds pass.
func waitFor(ctx context.Context, p *proc, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		switch {
		case p.exited():
			return errors.New("process exited")
		case ctx.Err() != nil:
			return ctx.Err()
		case time.Now().After(deadline):
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// start brings up the system under test of a daemon workload: one
// standalone hmmd, or a coordinator with both workers joined. Load is
// sized for the two cores this benchmark requires: two scheduler
// workers in total on the executing tier.
func (e env) start(ctx context.Context, w workload) (*sut, error) {
	s := &sut{}
	fail := func(err error) (*sut, error) {
		s.stop()
		return nil, err
	}
	if w.topo == standalone {
		p, err := e.startDaemon(ctx, w.name, "hmmd", "-workers", "2")
		if err != nil {
			return fail(err)
		}
		s.procs, s.url = []*proc{p}, "http://"+p.addr
		return s, nil
	}
	clusterAddr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	coord, err := e.startDaemon(ctx, w.name, "coordinator",
		"-role", "coordinator", "-workers", "2", "-cluster-addr", clusterAddr, "-qos", e.qos)
	if err != nil {
		return fail(err)
	}
	s.procs, s.url = []*proc{coord}, "http://"+coord.addr
	// The coordinator listens for workers before it serves HTTP, so a
	// healthy coordinator can be joined at once and no worker sleeps in
	// its join-retry loop.
	for i := 1; i <= 2; i++ {
		name := "worker" + strconv.Itoa(i)
		p, err := e.startDaemon(ctx, w.name, name,
			"-role", "worker", "-workers", "1", "-join", clusterAddr, "-name", name)
		if err != nil {
			return fail(err)
		}
		s.procs = append(s.procs, p)
	}
	if err := waitFor(ctx, coord, func() bool {
		m, err := scrape(s.url)
		return err == nil && m["hmmd_cluster_workers"] == 2
	}); err != nil {
		return fail(fmt.Errorf("workers never joined: %w", err))
	}
	return s, nil
}

// scrape reads and parses one daemon's /metrics.
func scrape(baseURL string) (promSeries, error) {
	resp, err := pollClient.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	return parseProm(string(body))
}

// usage is the resources a set of processes has consumed.
type usage struct {
	cpu       time.Duration // utime+stime, summed
	peakRSSMB float64       // VmHWM, summed
}

func readUsage(pids []int) (usage, error) {
	var u usage
	for _, pid := range pids {
		cpu, err := procCPU(pid)
		if err != nil {
			return u, err
		}
		rss, err := procPeakRSSMB(pid)
		if err != nil {
			return u, err
		}
		u.cpu += cpu
		u.peakRSSMB += rss
	}
	return u, nil
}

func (s *sut) pids() []int {
	out := make([]int, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.pid()
	}
	return out
}
