package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Counter.Value() = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if got := g.Value(); got != -3 {
		t.Errorf("Gauge.Value() = %d, want -3", got)
	}
}

// TestHistogramBuckets pins the bucket-placement rule: bucket i counts
// observations v with bits.Len64(v) == i, snapshotted with inclusive upper
// bound 2^i − 1.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	h.Observe(1 << 60) // beyond the last bound; absorbed by the last bucket

	s := h.Snapshot()
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	if s.Sum != 10+1<<60 {
		t.Errorf("Sum = %d, want %d", s.Sum, 10+1<<60)
	}
	want := []HistBucket{
		{Le: 0, Count: 2},                      // -5 (clamped), 0
		{Le: 1, Count: 1},                      // 1
		{Le: 3, Count: 2},                      // 2, 3
		{Le: 7, Count: 1},                      // 4
		{Le: 1<<(HistBuckets-1) - 1, Count: 1}, // 1<<60 overflow
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("Snapshot().Buckets = %+v, want %+v", s.Buckets, want)
	}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
}

// TestConcurrent hammers one counter and one histogram from many
// goroutines; run under -race this doubles as the data-race gate for the
// hot path.
func TestConcurrent(t *testing.T) {
	const goroutines, each = 16, 2000
	var c Counter
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*each {
		t.Errorf("Counter.Value() = %d, want %d", got, goroutines*each)
	}
	if got := h.Snapshot().Count; got != goroutines*each {
		t.Errorf("Histogram count = %d, want %d", got, goroutines*each)
	}
	var inBuckets uint64
	for _, b := range h.Snapshot().Buckets {
		inBuckets += b.Count
	}
	if inBuckets != goroutines*each {
		t.Errorf("bucket counts sum to %d, want %d", inBuckets, goroutines*each)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("Counter(x) returned distinct instances")
	}
	if r.Histogram("x.ns") != r.Histogram("x.ns") {
		t.Error("Histogram(x.ns) returned distinct instances")
	}
	if r.Gauge("x.g") != r.Gauge("x.g") {
		t.Error("Gauge(x.g) returned distinct instances")
	}
	other := NewRegistry()
	r.Counter("x").Inc()
	if other.Counter("x").Value() != 0 {
		t.Error("registries share state")
	}
}

// TestWriteJSONGolden pins the exact /debug/metrics shape: one flat JSON
// object, names sorted, counters/gauges as numbers, histograms as
// {count, sum, buckets}.
func TestWriteJSONGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(2)
	r.Gauge("b.gauge").Set(-3)
	h := r.Histogram("c.ns")
	h.Observe(1)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{
"a.count": 2,
"b.gauge": -3,
"c.ns": {"count":2,"sum":3,"buckets":[{"le":1,"n":1},{"le":3,"n":1}]}
}
`
	if sb.String() != want {
		t.Errorf("WriteJSON =\n%s\nwant\n%s", sb.String(), want)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("query.eval.count").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("body is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if m["query.eval.count"] != float64(1) {
		t.Errorf("query.eval.count = %v, want 1", m["query.eval.count"])
	}
}
