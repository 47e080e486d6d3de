// Package obs is Magnet's observability layer: allocation-conscious
// counters, gauges and histograms for the query → blackboard → advisor
// pipeline, a named-metric registry with an expvar-compatible JSON
// snapshot for /debug/metrics, and lightweight spans carried through
// context.Context for per-stage cost attribution (magnet-eval -trace,
// per-request traces in internal/web).
//
// The package is standard-library only and built for hot paths: metric
// handles are looked up once (package-level vars at the instrumented call
// sites) and every event thereafter is a few atomic adds — no maps, no
// locks, no allocation per event. Registry locks are taken only at
// metric-creation and snapshot time.
//
// Metric names are dotted lowercase paths, "stage.operation.measure":
// query.eval.ns, blackboard.analyst.related_items.runs,
// index.vector.cache.hit, web.request.count. Durations are recorded in
// nanoseconds into base-2 exponential histograms ("…ns"); cardinalities
// into the same histogram shape ("…results", "…suggestions").
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//magnet:hot
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
//
//magnet:hot
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depths, live sessions).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//magnet:hot
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
//
//magnet:hot
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the fixed bucket count of every Histogram: base-2
// exponential buckets, bucket i counting observations v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds zeros
// (and clamped negatives); the last bucket absorbs everything from
// 2^(HistBuckets-2) up. 48 buckets cover 1ns to ~1.6 days of nanoseconds,
// and any realistic result-set cardinality.
const HistBuckets = 48

// Histogram is a fixed-bucket exponential histogram over non-negative
// int64 observations (durations in nanoseconds, cardinalities). The zero
// value is ready to use; Observe is lock-free and allocation-free.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Uint64
	// exemplars[i] remembers the most recent traced observation that
	// landed in bucket i, so a p99 bucket on /debug/metrics links straight
	// to a captured trace in the flight recorder. Written only by
	// ObserveExemplar (one small allocation per traced observation);
	// plain Observe never touches it.
	exemplars [HistBuckets]atomic.Pointer[exemplar]
}

// exemplar is the stored form of a bucket's trace link.
type exemplar struct {
	traceID string
	v       int64
}

// Observe records v (negative values clamp to zero).
//
//magnet:hot
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := bits.Len64(uint64(v))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
}

// ObserveSince records the nanoseconds elapsed since start — the usual
// way to time a section:
//
//	defer h.ObserveSince(time.Now())
//
//magnet:hot
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(int64(time.Since(start)))
}

// ObserveExemplar records v and, when traceID is non-empty, remembers it
// as the bucket's exemplar — the trace that explains this bucket's most
// recent observation. One small allocation per traced observation; with
// an empty traceID it is exactly Observe.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.exemplars[i].Store(&exemplar{traceID: traceID, v: v})
}

// ObserveSinceExemplar is ObserveSince with an exemplar trace ID.
func (h *Histogram) ObserveSinceExemplar(start time.Time, traceID string) {
	h.ObserveExemplar(int64(time.Since(start)), traceID)
}

// HistBucket is one non-empty histogram bucket in a snapshot: Count
// observations with value ≤ Le (and greater than the previous bucket's Le).
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"n"`
}

// Exemplar links a snapshot bucket (by its Le bound) to the most recent
// trace whose observation landed there.
type Exemplar struct {
	Le      uint64 `json:"le"`
	Value   int64  `json:"v"`
	TraceID string `json:"trace"`
}

// HistSnapshot is the exported state of a Histogram.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets"`
	// Exemplars carries the per-bucket trace links, present only for
	// buckets that received a traced observation.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot returns the histogram's current state; only non-empty buckets
// are included, with inclusive upper bounds (2^i − 1).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := uint64(1)<<uint(i) - 1 // bucket i holds v with bits.Len64(v)==i
		s.Buckets = append(s.Buckets, HistBucket{Le: le, Count: n})
		if e := h.exemplars[i].Load(); e != nil {
			s.Exemplars = append(s.Exemplars, Exemplar{Le: le, Value: e.v, TraceID: e.traceID})
		}
	}
	return s
}

// Quantile estimates the q-quantile (q in [0, 1]) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank. With base-2 buckets the estimate is exact at bucket
// boundaries and off by at most one bucket's width inside — good enough
// to steer a slow-step threshold or report p50/p99 in a load harness.
// Returns 0 for an empty snapshot.
func (s HistSnapshot) Quantile(q float64) int64 { //magnet-vet:ignore deadcode // DESIGN.md "Quantile estimates"; kept for the log-linear histogram rework
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum uint64
	lower := float64(0)
	for _, b := range s.Buckets {
		if float64(cum+b.Count) >= rank {
			frac := (rank - float64(cum)) / float64(b.Count)
			if frac < 0 {
				frac = 0
			}
			return int64(lower + (float64(b.Le)-lower)*frac)
		}
		cum += b.Count
		lower = float64(b.Le)
	}
	return int64(s.Buckets[len(s.Buckets)-1].Le)
}

// Registry is a named-metric namespace. Metric constructors are
// get-or-create and idempotent: the first call for a name wins, later
// calls return the same instance, so package-level instrument variables
// can be declared independently at every call site.
type Registry struct {
	mu sync.Mutex
	// counters, gauges and hists map metric name → instance; guarded by mu.
	// Lookups happen at instrument-declaration time only — recording an
	// event never touches the registry.
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry /debug/metrics serves.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// NewCounter returns the named counter from the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge returns the named gauge from the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram returns the named histogram from the Default registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// Snapshot returns every metric keyed by name: counters as uint64, gauges
// as int64, histograms as HistSnapshot.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// WriteJSON writes the registry as one flat JSON object — the
// expvar-compatible shape /debug/metrics serves: metric names map to
// numbers (counters, gauges) or {count, sum, buckets} objects
// (histograms). Names are emitted sorted so output is diffable.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, name := range names {
		sep := ",\n"
		if i == 0 {
			sep = "\n"
		}
		val, err := json.Marshal(snap[name])
		if err != nil {
			return fmt.Errorf("obs: marshal %s: %w", name, err)
		}
		if _, err := fmt.Fprintf(w, "%s%q: %s", sep, name, val); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// metricsWriteErrors counts snapshot serialization failures behind the
// /debug/metrics and /debug/traces handlers. Package-level so the error
// path never pays a registry lookup.
var metricsWriteErrors = NewCounter("obs.metrics.write_errors")

// writeBufferedJSON marshals v fully before touching the ResponseWriter,
// so a marshal failure becomes a clean 500 instead of truncated JSON with
// a 200 status already on the wire.
func writeBufferedJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		metricsWriteErrors.Inc()
		http.Error(w, "marshal failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body)
}

// Handler serves the registry — mount it at /debug/metrics. The default
// is the flat sorted JSON object WriteJSON documents; ?format=prom
// switches to the Prometheus text exposition (WritePrometheus). Either
// way the snapshot is rendered into a buffer first, so a serialization
// failure returns a proper 500 instead of a truncated 200.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var buf bytes.Buffer
		if req.URL.Query().Get("format") == "prom" {
			if err := r.WritePrometheus(&buf); err != nil {
				metricsWriteErrors.Inc()
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			buf.WriteTo(w)
			return
		}
		if err := r.WriteJSON(&buf); err != nil {
			metricsWriteErrors.Inc()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		buf.WriteTo(w)
	})
}
