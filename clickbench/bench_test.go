package main

import (
	"bufio"
	"context"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, err := percentile(xs, 0.99); err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", p, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if p, err := percentile(xs[:100], 0.5); err != nil || p != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", p, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must be refused")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

// testRecipes keeps the server-backed tests small where a workload's logic
// does not depend on corpus size. study-tasks looks for simuser's target
// recipe, which only the paper's corpus holds, so it runs on that.
const testRecipes = 400

func testCorpus(name string) int {
	if name == "study-tasks" {
		return corpusRecipes
	}
	return testRecipes
}

// buildBinaries builds magnet-server and magnet-build from the repository
// into a temporary directory.
func buildBinaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs magnet-server")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"magnet-server", "magnet-build"} {
		c := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		c.Dir = ".."
		if out, err := c.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
	}
	return bin
}

func testConfig(t *testing.T, bin, name string, clients int, sessions []int) *config {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &config{bin: bin, work: t.TempDir(), w: w, recipes: testCorpus(name), clients: clients, setups: 1, sessions: sessions}
}

// sessionDigests runs cfg's sessions on a fresh server and returns their
// page digests.
func sessionDigests(t *testing.T, cfg *config) []string {
	t.Helper()
	ctx := context.Background()
	args, _, err := serverArgs(ctx, cfg, filepath.Join(cfg.work, "segments"))
	if err != nil {
		t.Fatal(err)
	}
	srv, _, err := startServer(ctx, filepath.Join(cfg.bin, "magnet-server"), args, filepath.Join(cfg.work, "server.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	browsers, err := runSessions(ctx, cfg, srv, transport, cfg.sessions, false)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, b := range browsers {
		if b.err != nil || b.failed > 0 {
			t.Fatalf("session %d: %d failed clicks: %v", b.session, b.failed, b.err)
		}
		out = append(out, b.sum())
	}
	return out
}

// Pages depend only on each session's own clicks, so a script gives the
// same digests whether its sessions run on one client or interleave on two.
func TestDigestsIndependentOfClients(t *testing.T) {
	bin := buildBinaries(t)
	sessions := []int{0, 1, 2, 3, 4, 5, 6, 7}
	one := sessionDigests(t, testConfig(t, bin, "study-tasks", 1, sessions))
	two := sessionDigests(t, testConfig(t, bin, "study-tasks", 2, sessions))
	for i := range one {
		if one[i] != two[i] {
			t.Errorf("session %d: digest %s on 1 client, %s on 2", sessions[i], one[i], two[i])
		}
	}
}

// A full run on a second seed, with its own sessions, completes with every
// click and check passing.
func TestSecondSeedRunsClean(t *testing.T) {
	bin := buildBinaries(t)
	// Enough sessions of each for the p99's 10 clicks beyond it.
	for name, n := range map[string]int{"broad-overview": 100, "study-tasks": 40} {
		perm := rand.New(rand.NewSource(2)).Perm(200)
		cfg := testConfig(t, bin, name, 0, perm[:n])
		cfg.clients, cfg.seed, cfg.warm = cfg.w.clients, 2, perm[100:102]
		res, err := bench(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < minClicks {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		for _, m := range []string{"setup_s", "click_p50_ms", "click_p99_ms", "clicks_per_s", "server_cpu_ms_per_click", "server_peak_rss_mb"} {
			if v := res.Metrics[m].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, m, v)
			}
		}
	}
}

// Interrupting a run mid-measurement stops it without a result and leaves
// no magnet-server behind.
func TestInterruptLeavesNoServer(t *testing.T) {
	bin := buildBinaries(t)
	self := filepath.Join(bin, "clickbench")
	build := exec.Command("go", "build", "-o", self, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build clickbench: %v\n%s", err, out)
	}
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		cmd := exec.Command(self, "-bin", bin, "-work", t.TempDir(),
			"--workload", "study-tasks", "--seed", "3", "--seconds", "30", "--trace", "0")
		cmd.Dir = ".."
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait until the run's server is up and serving clicks.
		var pid int
		deadline := time.Now().Add(60 * time.Second)
		for pid == 0 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Millisecond)
			if pids := serversOf(t, filepath.Join(bin, "magnet-server")); len(pids) > 0 {
				pid = pids[0]
			}
		}
		if pid == 0 {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal("no magnet-server started within 60s")
		}
		time.Sleep(2 * time.Second)
		if err := cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(bufio.NewReader(stdout))
		err = cmd.Wait()
		if err == nil {
			t.Errorf("%v: interrupted run exited 0", sig)
		}
		if strings.Contains(string(out), `"correct"`) {
			t.Errorf("%v: interrupted run printed a result:\n%s", sig, out)
		}
		if left := serversOf(t, filepath.Join(bin, "magnet-server")); len(left) > 0 {
			t.Errorf("%v: magnet-server still running after the run ended: pids %v", sig, left)
		}
	}
}

// serversOf returns the PIDs of live processes executing exe.
func serversOf(t *testing.T, exe string) []int {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, e := range ents {
		pid := 0
		for _, c := range e.Name() {
			if c < '0' || c > '9' {
				pid = -1
				break
			}
			pid = pid*10 + int(c-'0')
		}
		if pid <= 0 {
			continue
		}
		if target, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe")); err == nil && target == exe {
			pids = append(pids, pid)
		}
	}
	return pids
}
