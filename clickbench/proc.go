package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stopGrace is how long a child gets to exit after SIGTERM before its
// process group is killed.
const stopGrace = 5 * time.Second

// child is a started program in its own process group. Every child is in
// the live set from start until it has been waited for, so an interrupted
// run can stop whatever is still running.
type child struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd.Wait has returned
	err  error         // cmd.Wait's result, valid after done
}

var live struct {
	sync.Mutex
	set map[*child]bool
}

// startChild execs bin directly (never through `go run`, whose extra
// process would not pass signals on) in a new process group, with its
// output appended to logPath.
func startChild(bin string, args []string, logPath string) (*child, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open child log: %w", err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Pdeathsig kills the child if this process dies without cleaning up
	// (SIGKILL), which no handler here can catch.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	live.Lock()
	defer live.Unlock()
	if err := cmd.Start(); err != nil {
		_ = logf.Close() // never written
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{name: bin, cmd: cmd, done: make(chan struct{})}
	if live.set == nil {
		live.set = make(map[*child]bool)
	}
	live.set[c] = true
	go func() {
		c.err = cmd.Wait()
		_ = logf.Close() // a diagnostic log; a failed close loses nothing the run reports
		live.Lock()
		delete(live.set, c)
		live.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop sends SIGTERM to the child's process group, SIGKILL after
// stopGrace, and returns once the child has been waited for and its PID
// no longer exists.
func (c *child) stop() error {
	select {
	case <-c.done:
	default:
		_ = syscall.Kill(-c.pid(), syscall.SIGTERM) // ESRCH: already gone
		select {
		case <-c.done:
		case <-time.After(stopGrace):
			_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
			<-c.done
		}
	}
	// The group is gone too: the child was its only member.
	if err := syscall.Kill(-c.pid(), 0); !errors.Is(err, syscall.ESRCH) {
		return fmt.Errorf("%s: process group %d still exists after stop: %w", c.name, c.pid(), err)
	}
	return nil
}

// wait waits for the child to exit on its own, killing it when ctx ends.
func (c *child) wait(ctx context.Context) error {
	select {
	case <-c.done:
		return c.err
	case <-ctx.Done():
		if err := c.stop(); err != nil {
			return err
		}
		return ctx.Err()
	}
}

// stopAll stops every child still running; it is the cleanup for every
// exit path of the benchmark.
func stopAll() error {
	live.Lock()
	cs := make([]*child, 0, len(live.set))
	for c := range live.set {
		cs = append(cs, c)
	}
	live.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].pid() < cs[j].pid() })
	var errs []error
	for _, c := range cs {
		errs = append(errs, c.stop())
	}
	return errors.Join(errs...)
}

// server is a running magnet-server child and the loopback address it
// listens on.
type server struct {
	*child
	base string // http://127.0.0.1:port
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// probeClient has no cookie jar, so the readiness probe creates no session.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// startServer execs the server and returns it once /debug/metrics first
// answers 200, with the time from exec to that answer.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args = append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, args...)
	start := time.Now()
	c, err := startChild(bin, args, logPath)
	if err != nil {
		return nil, 0, err
	}
	s := &server{child: c, base: fmt.Sprintf("http://127.0.0.1:%d", port)}
	deadline := time.NewTimer(90 * time.Second)
	defer deadline.Stop()
	for {
		resp, err := probeClient.Get(s.base + "/debug/metrics")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // drained; only readiness matters
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		// The poll interval grows with the time waited: every 250 µs while
		// the millisecond segment open may finish, then 1% of the elapsed
		// time, so a start-up of a second or more is resolved to 1% without
		// a busy probe loop competing with it.
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("server exited during start-up (see %s): %w", logPath, c.err)
		case <-ctx.Done():
			return nil, 0, errors.Join(ctx.Err(), s.stop())
		case <-deadline.C:
			return nil, 0, errors.Join(errors.New("server not ready after 90s"), s.stop())
		case <-time.After(max(250*time.Microsecond, time.Since(start)/100)):
		}
	}
}

// stop stops the server and confirms its port no longer accepts.
func (s *server) stop() error {
	if err := s.child.stop(); err != nil {
		return err
	}
	conn, err := net.DialTimeout("tcp", strings.TrimPrefix(s.base, "http://"), time.Second)
	if err == nil {
		_ = conn.Close() // the open port is the error reported
		return fmt.Errorf("server port %s still open after stop", s.base)
	}
	return nil
}

// heapLive returns the server's live heap: HeapAlloc from the -pprof heap
// profile, read right after a forced garbage collection.
func (s *server) heapLive(ctx context.Context) (int64, error) {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second) // longer than a probe: it collects first
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/debug/pprof/heap?debug=1&gc=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("heap profile: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("heap profile: status %d", resp.StatusCode)
	}
	m := heapAllocRE.FindSubmatch(body)
	if m == nil {
		return 0, errors.New("heap profile: no HeapAlloc line")
	}
	return strconv.ParseInt(string(m[1]), 10, 64)
}

var heapAllocRE = regexp.MustCompile(`(?m)^# HeapAlloc = (\d+)$`)

// metric is one /debug/metrics entry: a counter or gauge value, or a
// histogram's exact count and sum.
type metric struct {
	Value float64
	Count float64
	Sum   float64
}

func (m *metric) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '{' {
		var h struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if err := json.Unmarshal(b, &h); err != nil {
			return err
		}
		m.Count, m.Sum = h.Count, h.Sum
		return nil
	}
	return json.Unmarshal(b, &m.Value)
}

type snapshot map[string]metric

// scrape reads the server's metric registry.
func (s *server) scrape(ctx context.Context) (snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/debug/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := probeClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape metrics: status %d", resp.StatusCode)
	}
	snap := snapshot{}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return snap, nil
}

// delta returns after − before for every entry. Only counters and
// histograms have meaningful deltas; gauges are read from after.
func delta(before, after snapshot) snapshot {
	d := snapshot{}
	for k, a := range after {
		b := before[k]
		d[k] = metric{Value: a.Value - b.Value, Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	}
	return d
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime returns the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// hostSteal returns the CPU time, summed over this machine's CPUs, that a
// virtual machine's host spent running something else while the guest had
// work: the steal field of /proc/stat. It is recorded with every run
// because it slows clicks without showing in the server's CPU time.
func hostSteal() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("/proc/stat: no steal field")
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/stat: %w", err)
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// peakRSS returns VmHWM, the process's peak resident set, in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
