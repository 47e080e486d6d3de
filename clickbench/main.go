// Command clickbench measures magnet-server one click at a time: it starts
// a freshly built server, replays seeded browsing sessions against it over
// loopback HTTP from closed-loop clients, checks every page, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as a
// JSON object on its last line of output. See README.md for the workloads
// and metrics.
//
// Usage (from the repository root, through the script that builds it):
//
//	bash clickbench/run.sh --workload study-tasks --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runDeadline bounds a whole invocation; past it the run is abandoned,
// its processes stopped, and no result printed.
const runDeadline = 170 * time.Second

// config is one invocation.
type config struct {
	bin      string // directory holding the built magnet-server and magnet-build
	work     string // directory for logs, segment sets and traces
	w        *workload
	seed     int64
	trace    bool
	recipes  int // corpus size
	clients  int
	setups   int          // fewest server starts whose median is setup_s
	pool     []poolRecord // recorded pool sessions; nil skips the digest check
	sessions []int        // measured pool sessions, in order
	warm     []int        // warm-up pool sessions
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clickbench:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	workloadName := flag.String("workload", "", "workload: study-tasks, broad-overview or item-similar")
	seed := flag.Int64("seed", 1, "seed choosing the run's sessions")
	seconds := flag.Int("seconds", 30, "run length; above 30 it scales the number of measured clicks")
	trace := flag.Int("trace", 0, "1 = per-layer metrics from a traced run")
	bin := flag.String("bin", ".bench_build/bin", "directory with the built magnet-server and magnet-build")
	work := flag.String("work", ".bench_build/run", "directory for logs, segment sets and traces")
	record := flag.String("record", "", "run every pool session once and write their page digests and click counts to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every exit path, a panic included, stops the children.
	defer func() {
		if r := recover(); r != nil {
			err = errors.Join(err, fmt.Errorf("panic: %v", r))
		}
		err = errors.Join(err, stopAll())
	}()

	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	if *record != "" {
		return recordDigests(ctx, *bin, *work, *record)
	}
	w, err := workloadByName(*workloadName)
	if err != nil {
		return err
	}
	cfg, err := newConfig(w, *seed, *seconds, *trace == 1, *bin, *work)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res, err := bench(ctx, cfg, os.Stdout)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := stopAll(); err != nil { // before the result: a leaked child voids it
		return err
	}
	fmt.Println(string(out))
	return nil
}

// digestsFile holds the recorded pool sessions, next to this source.
const digestsFile = "clickbench/digests.json"

// poolRecord is what a pool session did when it was recorded: the digest
// of its pages and how many clicks it made.
type poolRecord struct {
	Digest string `json:"digest"`
	Clicks int    `json:"clicks"`
}

// minClicks is the fewest measured clicks a run makes: enough for a p99
// with minBeyond clicks beyond it.
const minClicks = 1000

func newConfig(w *workload, seed int64, seconds int, trace bool, bin, work string) (*config, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds %d: must be at least 1", seconds)
	}
	raw, err := os.ReadFile(digestsFile)
	if err != nil {
		return nil, fmt.Errorf("recorded sessions: %w", err)
	}
	var all map[string][]poolRecord
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("recorded sessions: %w", err)
	}
	pool := all[w.name]
	if len(pool) != w.pool {
		return nil, fmt.Errorf("recorded sessions: %d for %s, want %d", len(pool), w.name, w.pool)
	}
	// The seed orders the pool: the first sessions warm up, then sessions
	// are measured until their recorded clicks reach the target. The run
	// length is work, not time, so two commits do identical work.
	target := max(minClicks, minClicks*seconds/30)
	perm := rand.New(rand.NewSource(seed)).Perm(w.pool)
	cfg := &config{
		bin: bin, work: work, w: w, seed: seed, trace: trace,
		recipes: corpusRecipes, clients: w.clients, setups: 3,
		pool: pool, warm: perm[:w.warmup],
	}
	clicks := 0
	for _, idx := range perm[w.warmup:] {
		if clicks >= target {
			break
		}
		cfg.sessions = append(cfg.sessions, idx)
		clicks += pool[idx].Clicks
	}
	if clicks < target {
		return nil, fmt.Errorf("--seconds %d needs %d clicks; the recorded pool has %d", seconds, target, clicks)
	}
	if trace {
		// The traced run replays the first half of the sessions twice, on
		// two fresh servers: untraced, then traced. The difference is the
		// tracing overhead; the run costs about as much as an untraced one.
		cfg.sessions = cfg.sessions[:len(cfg.sessions)/2]
		cfg.setups = 1
	}
	return cfg, nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is one measured phase against one server.
type pass struct {
	lat       []float64 // completed clicks' latencies, ms, sorted
	attempted int
	failed    int
	wall      time.Duration
	cpu       time.Duration
	rss       int64
	reqs      int
	reqMS     float64
	pageBytes int
	byKind    map[string]int
	reqPaths  map[string]int
	digest    string // combined digest of the measured sessions, in session order
	mismatch  []string
	spans     []span
	before    snapshot // traced passes only
	after     snapshot
	heapLive  int64         // bytes live after the measured phase; traced passes only
	steal     time.Duration // CPU time the host took from this machine's CPUs
}

func (p *pass) clicks() int { return len(p.lat) }

// bench runs one invocation and returns its result; human-readable
// records go to out.
func bench(ctx context.Context, cfg *config, out io.Writer) (*result, error) {
	srvBin := filepath.Join(cfg.bin, "magnet-server")
	env := describeEnv(cfg, srvBin)
	fmt.Fprintln(out, "# env", env)

	segDir := filepath.Join(cfg.work, fmt.Sprintf("segments-%d", os.Getpid()))
	defer os.RemoveAll(segDir)
	args, segBuild, err := serverArgs(ctx, cfg, segDir)
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(cfg.work, fmt.Sprintf("server-%s-%d.log", cfg.w.name, cfg.seed))
	_ = os.Remove(logPath) // a fresh log per run; absent is fine

	var setups []float64
	var srv *server
	for {
		s, dur, err := startServer(ctx, srvBin, args, logPath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dur.Seconds())
		if !moreSetups(cfg.setups, setups) {
			srv = s // the last start serves the run
			break
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	untraced, err := measure(ctx, cfg, srv, false)
	if stopErr := srv.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: untraced.attempted, Failed: untraced.failed, Metrics: map[string]metricOut{}}
	mismatch := untraced.mismatch
	final := untraced
	if cfg.trace {
		// -pprof serves the heap profile the traced pass reads the live
		// heap from; the untraced pass runs without it.
		srv, _, err := startServer(ctx, srvBin, append(args[:len(args):len(args)], "-pprof"), logPath)
		if err != nil {
			return nil, err
		}
		traced, err := measure(ctx, cfg, srv, true)
		if stopErr := srv.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		mismatch = append(mismatch, traced.mismatch...)
		final = traced
		layers, check, ok := layerMetrics(cfg, traced, untraced, segBuild)
		fmt.Fprintln(out, check)
		if !ok {
			mismatch = append(mismatch, "trace coverage check failed")
		}
		names := make([]string, 0, len(layers))
		for name := range layers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(out, "  %-40s %14.4f %s\n", name, layers[name].Value, layers[name].Unit)
		}
		res.Metrics = layers
		if err := writeTrace(cfg, traced.spans); err != nil {
			return nil, err
		}
	} else {
		p99, err := percentile(untraced.lat, 0.99)
		if err != nil {
			return nil, fmt.Errorf("click_p99_ms: %w", err)
		}
		set := func(name string, v float64, unit string) { res.Metrics[name] = metricOut{v, unit} }
		set("setup_s", median(setups), "s")
		set("click_p50_ms", median(untraced.lat), "ms")
		set("click_p99_ms", p99, "ms")
		set("clicks_per_s", float64(untraced.clicks())/untraced.wall.Seconds(), "1/s")
		set("server_cpu_ms_per_click", ms(untraced.cpu)/float64(untraced.clicks()), "ms")
		set("server_peak_rss_mb", float64(untraced.rss)/1e6, "MB")
	}
	fmt.Fprintf(out, "# run workload=%s seed=%d sessions=%d clicks=%d attempted=%d failed=%d p99_samples=%d wall_s=%.2f host_steal_pct=%.1f setups_s=%v digest=%s\n",
		cfg.w.name, cfg.seed, len(cfg.sessions), final.clicks(), res.Attempted, res.Failed, len(final.lat),
		final.wall.Seconds(), 100*final.steal.Seconds()/final.wall.Seconds()/float64(runtime.NumCPU()), roundAll(setups), final.digest)
	for _, m := range mismatch {
		fmt.Fprintln(out, "# FAIL", m)
	}
	res.Correct = res.Failed == 0 && len(mismatch) == 0
	return res, nil
}

// moreSetups reports whether to time another server start: at least min
// starts, then more until they add up to a second (at most 21), so a
// start of a few milliseconds is timed often enough for a steady median.
func moreSetups(min int, times []float64) bool {
	if len(times) < min {
		return true
	}
	total := 0.0
	for _, t := range times {
		total += t
	}
	return min > 1 && total < 1 && len(times) < 21
}

// measure runs the warm-up sessions untimed, then the measured sessions,
// against srv. A traced pass also records spans and scrapes the metric
// registry around the measured phase.
func measure(ctx context.Context, cfg *config, srv *server, traced bool) (*pass, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: cfg.clients + 1, DisableCompression: true}
	defer transport.CloseIdleConnections()
	warm, err := runSessions(ctx, cfg, srv, transport, cfg.warm, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	p := &pass{mismatch: checkSessions(cfg, cfg.warm, warm)}
	if traced {
		if p.before, err = srv.scrape(ctx); err != nil {
			return nil, err
		}
	}
	cpu0, err := cpuTime(srv.pid())
	if err != nil {
		return nil, err
	}
	steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	browsers, err := runSessions(ctx, cfg, srv, transport, cfg.sessions, traced)
	if err != nil {
		return nil, err
	}
	p.wall = time.Since(start)
	cpu1, err := cpuTime(srv.pid())
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	steal1, err := hostSteal()
	if err != nil {
		return nil, err
	}
	p.steal = steal1 - steal0
	if traced {
		if p.after, err = srv.scrape(ctx); err != nil {
			return nil, err
		}
	}
	if p.rss, err = peakRSS(srv.pid()); err != nil {
		return nil, err
	}
	if traced {
		if p.heapLive, err = srv.heapLive(ctx); err != nil {
			return nil, err
		}
	}
	p.byKind, p.reqPaths = map[string]int{}, map[string]int{}
	combined := sha256.New()
	for _, b := range browsers {
		p.lat = append(p.lat, b.lat...)
		p.attempted += len(b.lat) + b.failed
		p.failed += b.failed
		p.reqs += b.reqs
		p.reqMS += b.reqMS
		p.pageBytes += b.pageSize
		for k, v := range b.byKind {
			p.byKind[k] += v
		}
		for k, v := range b.reqPaths {
			p.reqPaths[k] += v
		}
		p.spans = append(p.spans, b.spans...)
		fmt.Fprintln(combined, b.sum())
	}
	p.mismatch = append(p.mismatch, checkSessions(cfg, cfg.sessions, browsers)...)
	p.digest = hex.EncodeToString(combined.Sum(nil))[:16]
	sort.Float64s(p.lat)
	return p, nil
}

// checkSessions reports each session that stopped early or whose page
// digest differs from the recorded one.
func checkSessions(cfg *config, idxs []int, browsers []*browser) []string {
	var out []string
	for i, b := range browsers {
		if b.err != nil {
			out = append(out, b.err.Error())
		}
		if want := cfg.pool; want != nil && b.sum() != want[idxs[i]].Digest {
			out = append(out, fmt.Sprintf("session %d: page digest %s, recorded %s", idxs[i], b.sum(), want[idxs[i]].Digest))
		}
	}
	return out
}

// runSessions runs the pool sessions idxs on cfg.clients closed-loop
// clients and returns their browsers in idxs order. A session that fails
// a click or a page check stops there and carries its error; only
// cancellation fails the whole call.
func runSessions(ctx context.Context, cfg *config, srv *server, transport http.RoundTripper, idxs []int, traced bool) ([]*browser, error) {
	browsers := make([]*browser, len(idxs))
	epoch := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Value
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.Store(fmt.Sprint(r))
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(idxs) || ctx.Err() != nil {
					return
				}
				b := newBrowser(transport, srv.base, idxs[i])
				b.trace, b.epoch = traced, epoch
				b.err = cfg.w.session(ctx, b, sessionRNG(cfg.w, idxs[i]))
				browsers[i] = b
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		return nil, fmt.Errorf("client panic: %v", r)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return browsers, nil
}

// serverArgs returns the server flags for cfg's workload, the same for
// recording and measuring. A segment-backed workload first builds its
// segment set into dir and returns the build's wall time; the caller
// removes dir.
func serverArgs(ctx context.Context, cfg *config, dir string) ([]string, time.Duration, error) {
	if !cfg.w.segments {
		return []string{"-recipes", fmt.Sprint(cfg.recipes), "-log-level", "warn"}, 0, nil
	}
	segBuild, err := buildSegments(ctx, cfg, dir)
	if err != nil {
		return nil, 0, err
	}
	return []string{"-segments", dir, "-log-level", "warn"}, segBuild, nil
}

// buildSegments runs magnet-build for the corpus into dir and returns its
// wall time.
func buildSegments(ctx context.Context, cfg *config, dir string) (time.Duration, error) {
	_ = os.RemoveAll(dir) // a leftover from an interrupted run; absent is fine
	start := time.Now()
	c, err := startChild(filepath.Join(cfg.bin, "magnet-build"),
		[]string{"-out", dir, "-recipes", fmt.Sprint(cfg.recipes)},
		filepath.Join(cfg.work, "magnet-build.log"))
	if err != nil {
		return 0, err
	}
	if err := c.wait(ctx); err != nil {
		return 0, fmt.Errorf("magnet-build: %w", err)
	}
	return time.Since(start), nil
}

// describeEnv records what a result depends on besides the code.
func describeEnv(cfg *config, srvBin string) string {
	// Only a checkout that is itself a git work tree names its commit; git
	// is not allowed to search the directories above it.
	commit := "none"
	if wd, err := os.Getwd(); err == nil && isDir(filepath.Join(wd, ".git")) {
		git := exec.Command("git", "rev-parse", "--short", "HEAD")
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		if b, err := git.Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	binSum := "missing"
	if b, err := os.ReadFile(srvBin); err == nil {
		h := sha256.Sum256(b)
		binSum = hex.EncodeToString(h[:6])
	}
	gomaxprocs := os.Getenv("GOMAXPROCS")
	if gomaxprocs == "" {
		gomaxprocs = fmt.Sprintf("default(%d)", runtime.NumCPU())
	}
	return fmt.Sprintf("workload=%s seed=%d clients=%d sessions=%d warmup=%d corpus=%d gomaxprocs=%s nproc=%d go=%s commit=%s server_sha256=%s",
		cfg.w.name, cfg.seed, cfg.clients, len(cfg.sessions), len(cfg.warm), cfg.recipes,
		gomaxprocs, runtime.NumCPU(), runtime.Version(), commit, binSum)
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

// writeTrace writes the traced pass's spans, kept in memory until now.
func writeTrace(cfg *config, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", cfg.w.name, cfg.seed)), b, 0o644)
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1e5)) / 1e5
	}
	return out
}

// recordDigests runs every pool session of every workload once and writes
// their page digests and click counts: the reference every run checks.
// Pages do not depend on how sessions interleave, so two clients record
// what one would.
func recordDigests(ctx context.Context, bin, work, path string) error {
	all := map[string][]poolRecord{}
	for _, w := range workloads {
		cfg := &config{bin: bin, work: work, w: w, recipes: corpusRecipes, clients: 2, setups: 1}
		for i := 0; i < w.pool; i++ {
			cfg.sessions = append(cfg.sessions, i)
		}
		res, err := recordWorkload(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		all[w.name] = res
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func recordWorkload(ctx context.Context, cfg *config) ([]poolRecord, error) {
	segDir := filepath.Join(cfg.work, "segments-record")
	defer os.RemoveAll(segDir)
	args, _, err := serverArgs(ctx, cfg, segDir)
	if err != nil {
		return nil, err
	}
	srv, _, err := startServer(ctx, filepath.Join(cfg.bin, "magnet-server"), args, filepath.Join(cfg.work, "server-record.log"))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	transport := &http.Transport{DisableCompression: true}
	defer transport.CloseIdleConnections()
	browsers, err := runSessions(ctx, cfg, srv, transport, cfg.sessions, false)
	if err != nil {
		return nil, err
	}
	out := make([]poolRecord, len(browsers))
	for i, b := range browsers {
		if b.err != nil {
			return nil, b.err
		}
		out[i] = poolRecord{Digest: b.sum(), Clicks: len(b.lat)}
	}
	return out, srv.stop()
}
